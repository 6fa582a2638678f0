/**
 * @file
 * The benchmark's workloads. Each is a closed loop: a client asks for
 * its next objective evaluation only after the previous one
 * returned, as a VQA optimizer does.
 *
 *  - ch4_vqe: one client, VarSaw on CH4-6 under SPSA with a fixed
 *    circuit budget, private serial runtime. Sampling-heavy.
 *  - shared_sweep: two clients (VarSaw and Baseline on TFIM-8) share
 *    one ExecutionService with 2 workers and walk the same seeded
 *    list of SPSA-style +- points. Runtime/service-heavy, with
 *    cross-session dedupe.
 *  - wide_postprocess: one client, VarSaw on H6-10 (919 terms) under
 *    SPSA, private serial runtime. Classical post-processing-heavy.
 *
 * Work is cut into units (one VQE run, or one sweep). Every input of
 * unit u — initial parameters, SPSA seed, sweep points — and the
 * backend seed are derived from the workload seed alone; the library
 * receives only these generated inputs.
 */

#ifndef VARSAW_PERFBENCH_WORKLOADS_HH
#define VARSAW_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** Set-up cost of one instance. */
struct SetupTimes
{
    double totalS = 0;      //!< Hamiltonian + estimator(s) + service
    double estimatorMs = 0; //!< basis reduction + spatial plan
    double serviceMs = 0;   //!< ExecutionService (0 when none)
};

/** Outcome of one unit of work. */
struct UnitResult
{
    std::uint64_t evals = 0;  //!< evaluations attempted, all clients
    std::uint64_t failed = 0; //!< evaluations of a failed unit
    std::uint64_t circuits = 0;
    std::uint64_t shots = 0;
    std::uint64_t retries = 0;
    std::uint64_t globalsRun = 0;
    std::uint64_t jobs = 0;       //!< jobs submitted, all clients
    std::uint64_t cacheHits = 0;  //!< submitter cache hits
    std::uint64_t crossHits = 0;  //!< cross-session hits
    double wallS = 0;
    std::string failure; //!< first failed check, empty when none
};

/** One set-up of a workload: Hamiltonian, backend, estimators. */
class Instance
{
  public:
    virtual ~Instance() = default;

    /** Run unit @p unit to completion and check its outputs. */
    virtual UnitResult runUnit(std::uint64_t unit) = 0;

    /** Checks that need the whole run (empty string when passed). */
    virtual std::string finalCheck() { return {}; }

    /** Per-client evaluation logs, in client order. */
    virtual const std::vector<EvalLog> &logs() const = 0;

    /** The backend every client runs on. */
    virtual varsaw::Executor &backend() = 0;

    /** Threads that run backend jobs (service workers, or 1). */
    virtual int workers() const = 0;

    /** Per client: true for VarSaw, false for Baseline. */
    virtual std::vector<bool> varsawClients() const = 0;

    SetupTimes setup;
};

/**
 * Build one instance of workload @p name, timing its set-up; @p smoke
 * selects the few-evaluation sizes of the smoke test. With a tracer, the backend is a TracedNoisyExecutor and every estimator
 * reaches its runtime through a TracingBackplane. Returns null for an
 * unknown name.
 */
std::unique_ptr<Instance> makeInstance(const std::string &name,
                                       std::uint64_t seed, bool smoke,
                                       Tracer *tracer);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // VARSAW_PERFBENCH_WORKLOADS_HH
