/**
 * @file
 * The worker arm of the thread-sweep bit-identity tests.
 *
 * Private runtimes are serial; every batch worker thread belongs to
 * an ExecutionService. A sweep therefore compares the serial private
 * runtime (kSerial) against one-session services with 2, 4 and 8
 * workers, reached the way estimators reach them: through
 * RuntimeConfig::service.
 */

#ifndef VARSAW_TESTS_WORKER_SERVICE_HH
#define VARSAW_TESTS_WORKER_SERVICE_HH

#include <memory>

#include "mitigation/executor.hh"
#include "service/execution_service.hh"

namespace varsaw {

/** Worker count meaning "no service: the serial private runtime". */
constexpr int kSerial = 0;

/** Service worker counts every sweep compares against kSerial. */
constexpr int kWorkerCounts[] = {2, 4, 8};

/**
 * The service to pass as RuntimeConfig::service for a sweep arm:
 * null for kSerial, else an ExecutionService with @p workers workers
 * over @p backend. Declare it before the estimator or submitter that
 * uses it, so it is destroyed last.
 */
inline std::unique_ptr<ExecutionService>
workerService(Executor &backend, int workers)
{
    if (workers == kSerial)
        return nullptr;
    ServiceConfig config;
    config.threads = workers;
    return std::make_unique<ExecutionService>(backend, config);
}

} // namespace varsaw

#endif // VARSAW_TESTS_WORKER_SERVICE_HH
