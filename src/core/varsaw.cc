#include "core/varsaw.hh"

#include "mitigation/jigsaw.hh"
#include "util/logging.hh"

#include <utility>

namespace varsaw {

VarsawEstimator::VarsawEstimator(const Hamiltonian &hamiltonian,
                                 const Circuit &ansatz,
                                 Executor &executor,
                                 const VarsawConfig &config)
    : hamiltonian_(hamiltonian),
      prep_(std::make_shared<const Circuit>(ansatz)),
      runtime_(makeSubmitter(executor, config.runtime)),
      config_(config),
      plan_(buildSpatialPlan(hamiltonian, config.subsetSize,
                             config.basisMode)),
      scheduler_(config.temporal)
{
    // The spatial plan and bases are fixed, so every measurement
    // suffix is built once; each tick submits them against the
    // shared ansatz prep instead of cloning the prepared circuit
    // per subset/basis.
    subsetSuffixes_.reserve(plan_.executedSubsets.size());
    for (const auto &subset : plan_.executedSubsets)
        subsetSuffixes_.push_back(makeSubsetSuffix(subset));
    globalSuffixes_.reserve(plan_.bases.bases.size());
    for (const auto &basis : plan_.bases.bases)
        globalSuffixes_.push_back(makeGlobalSuffix(basis));
    locals_.resize(plan_.basisWindows.size());
    for (std::size_t b = 0; b < plan_.basisWindows.size(); ++b) {
        locals_[b].reserve(plan_.basisWindows[b].size());
        for (const auto &binding : plan_.basisWindows[b])
            locals_[b].push_back({binding.globalPositions, Pmf()});
    }
}

void
VarsawEstimator::resetTemporalState()
{
    prior_.clear();
    lastResult_.clear();
    havePrior_ = false;
    haveResult_ = false;
    iteration_ = 0;
    iterationStarted_ = false;
    probesThisIteration_ = 0;
    externallyPaced_ = false;
    evaluations_ = 0;
    scheduler_ = GlobalScheduler(config_.temporal);
}

void
VarsawEstimator::advanceIteration()
{
    if (iterationStarted_)
        ++iteration_;
    iterationStarted_ = true;
    probesThisIteration_ = 0;
    // Nothing reads lastResult_ again before estimate() replaces
    // it, so it moves. A second boundary with no evaluation between
    // keeps the prior it moved in.
    if (haveResult_) {
        prior_ = std::move(lastResult_);
        havePrior_ = true;
        haveResult_ = false;
    }
    scheduler_.recordTick(iteration_);
}

void
VarsawEstimator::onIterationBoundary()
{
    externallyPaced_ = true;
    advanceIteration();
}

void
VarsawEstimator::collectLocals(const std::vector<double> &params)
{
    // Execute each reduced subset exactly once this tick, as one
    // parallel batch of suffix jobs over the shared prep.
    Batch batch;
    batch.reserve(subsetSuffixes_.size());
    for (const auto &suffix : subsetSuffixes_)
        batch.addPrefixed(prep_, suffix, params,
                          config_.subsetShots);
    const std::vector<Pmf> subset_pmfs = runtime_->run(batch);

    // Answer every basis window from the shared results: each
    // distinct window marginal is computed once.
    std::vector<Pmf> marginals;
    marginals.reserve(plan_.marginals.size());
    for (const auto &m : plan_.marginals)
        marginals.push_back(
            subset_pmfs[m.coverIndex].marginal(m.positions));
    for (std::size_t b = 0; b < plan_.basisWindows.size(); ++b) {
        const auto &bindings = plan_.basisWindows[b];
        for (std::size_t w = 0; w < bindings.size(); ++w)
            locals_[b][w].pmf = marginals[bindings[w].marginalIndex];
    }
}

std::vector<Pmf>
VarsawEstimator::reconstructAll(const std::vector<Pmf> &priors) const
{
    return bayesianReconstructAll(priors, locals_,
                                  config_.reconstructionPasses);
}

std::vector<Pmf>
VarsawEstimator::runGlobals(const std::vector<double> &params)
{
    Batch batch;
    batch.reserve(globalSuffixes_.size());
    for (const auto &suffix : globalSuffixes_)
        batch.addPrefixed(prep_, suffix, params,
                          config_.globalShots);
    std::vector<Pmf> globals = runtime_->run(batch);
    if (config_.mbm)
        for (auto &pmf : globals)
            pmf = config_.mbm->apply(pmf);
    return globals;
}

double
VarsawEstimator::estimate(const std::vector<double> &params)
{
    // Without a driver pacing iterations, every evaluation is its
    // own iteration (the pre-hook behaviour tests rely on).
    if (!externallyPaced_ || !iterationStarted_)
        advanceIteration();
    ++evaluations_;
    const bool first_probe = probesThisIteration_ == 0;
    ++probesThisIteration_;

    collectLocals(params);

    // Globals run at most once per iteration, on its first probe.
    const bool run_global = first_probe &&
        (!havePrior_ || scheduler_.shouldRunGlobal(iteration_));

    std::vector<Pmf> mitigated;
    if (run_global) {
        auto fresh_globals = runGlobals(params);
        auto fresh = reconstructAll(fresh_globals);
        const double fresh_energy = energyFromBasisPmfs(
            hamiltonian_, plan_.bases, fresh);

        // The stale-vs-fresh check belongs to the Adaptive feedback
        // scheme only. Running it unconditionally would min-select
        // between two noisy estimates every Global iteration — a
        // ratchet that drags the reported energy below the physical
        // spectrum over long runs (observed on noise-free CH4-6).
        if (havePrior_ &&
            config_.temporal.mode ==
                GlobalScheduler::Mode::Adaptive) {
            // Check iteration: compute the result both ways and
            // hill-climb the sparsity (Section 4.2).
            auto stale = reconstructAll(prior_);
            const double stale_energy = energyFromBasisPmfs(
                hamiltonian_, plan_.bases, stale);
            const bool stale_no_worse =
                stale_energy <= fresh_energy;
            scheduler_.adjustInterval(stale_no_worse);
            mitigated = stale_no_worse ? std::move(stale)
                                       : std::move(fresh);
        } else {
            mitigated = std::move(fresh);
        }
        scheduler_.noteGlobalRun(iteration_);
        // Later probes of this iteration reconstruct from the
        // checked result rather than the superseded prior.
        prior_ = mitigated;
        havePrior_ = true;
    } else {
        // Stale chain: this iteration's shared prior.
        mitigated = reconstructAll(prior_);
    }

    const double energy = energyFromBasisPmfs(
        hamiltonian_, plan_.bases, mitigated);
    lastResult_ = std::move(mitigated);
    haveResult_ = true;
    return energy;
}

} // namespace varsaw
