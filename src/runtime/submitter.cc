#include "runtime/submitter.hh"

#include "runtime/batch_executor.hh"

namespace varsaw {

std::vector<Pmf>
JobSubmitter::run(const Batch &batch)
{
    auto futures = submit(batch);
    return collect(futures);
}

std::vector<Pmf>
JobSubmitter::collect(std::vector<std::future<Pmf>> &futures)
{
    std::vector<Pmf> results;
    results.reserve(futures.size());
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

std::unique_ptr<JobSubmitter>
makeSubmitter(Executor &backend, const RuntimeConfig &config)
{
    if (config.service)
        return config.service->openSession(backend, config);
    return std::make_unique<BatchExecutor>(backend, config);
}

} // namespace varsaw
