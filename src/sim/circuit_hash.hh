/**
 * @file
 * Structural hashing of circuit jobs.
 *
 * A JobKey identifies a submission by what it computes — the
 * circuit's structure (gates, qubits, measurement spec), the bound
 * parameter values (quantized to a ~2.3e-10 rad grid, far below
 * shot noise or any optimizer step this stack takes, so only
 * physically indistinguishable angles collide), and the shot
 * count. Two submissions
 * with equal keys are redundant work: the JobLedger answers the
 * later one with the earlier one's sampled result instead of
 * re-executing.
 *
 * Keys are compared by (circuitHash, paramsHash, shots) without
 * re-checking the underlying job, so an accidental collision would
 * silently alias two jobs. Distinct jobs differing in params or
 * shots need a joint 128-bit collision; the worst case — distinct
 * circuits at identical params — needs a single 64-bit circuit-hash
 * collision, i.e. ~2^32 distinct circuit structures in one cache
 * epoch before the birthday bound bites. Workloads here submit a
 * few thousand structures per run, so this is accepted rather than
 * paid for with per-entry job storage.
 *
 * A PrepKey identifies the state a job's prep prefix prepares (the
 * SimEngine's cache key). Admission computes each job's keys once,
 * with identifyJobs and prepKeyFor; makeJobKey and prepKeyOf are the
 * from-scratch reference they must equal.
 */

#ifndef VARSAW_SIM_CIRCUIT_HASH_HH
#define VARSAW_SIM_CIRCUIT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/circuit.hh"
#include "util/rng.hh"

namespace varsaw {

struct CircuitJob;
struct JobView;

/**
 * Structural hash of a circuit: qubit count, gate sequence (kind,
 * operands, bound angles, parameter slots) and measurement spec.
 * Labels are ignored — they are diagnostics, not semantics.
 */
std::uint64_t circuitStructuralHash(const Circuit &circuit);

/**
 * Structural hash of a circuit's leading @p count ops (qubit count
 * included, measurement spec and parameter count excluded). This is
 * the prep-state identity of the prefix-sharing engine: a state-prep
 * prefix hashes the same whether it is the leading slice of a full
 * measurement circuit or a standalone shared prep circuit.
 */
std::uint64_t circuitPrefixHash(const Circuit &circuit,
                                std::size_t count);

/**
 * Hash of a parameter vector, quantized to ~2^-32 radians per slot
 * so that values closer than floating-point noise map to the same
 * key while any physically distinct angles stay apart.
 */
std::uint64_t parameterHash(const std::vector<double> &params);

/** Content identity of one job: structure + params + shots. */
struct JobKey
{
    std::uint64_t circuitHash = 0;
    std::uint64_t paramsHash = 0;
    std::uint64_t shots = 0;

    bool operator==(const JobKey &other) const
    {
        return circuitHash == other.circuitHash &&
            paramsHash == other.paramsHash && shots == other.shots;
    }
};

/** Hash functor so JobKey can key an unordered_map. */
struct JobKeyHasher
{
    std::size_t operator()(const JobKey &key) const;
};

/**
 * Structural hash of the circuit a job denotes. For a plain job
 * this is circuitStructuralHash(job.circuit); for a prefix-sharing
 * job it hashes prep ops followed by suffix ops and the suffix's
 * measurement spec, producing the SAME value as hashing the
 * flattened (prep + suffix) circuit — so prefixed and cloned
 * submissions of identical work dedupe against each other.
 */
std::uint64_t jobCircuitHash(const JobView &job);

/** Compute the content key of a job (a CircuitJob passes view()). */
JobKey makeJobKey(const JobView &job);

/** Content identity of a prepared state: prefix structure + params. */
struct PrepKey
{
    std::uint64_t structure = 0; //!< prefix-ops structural hash
    std::uint64_t params = 0;    //!< quantized parameter hash

    bool operator==(const PrepKey &other) const
    {
        return structure == other.structure &&
            params == other.params;
    }

    /** Single-word digest (display / diagnostics; the scheduler and
     * the cache compare full keys, so digest collisions only ever
     * cost a hash-bucket probe, never correctness). */
    std::uint64_t combined() const
    {
        return mix64(structure, params);
    }
};

/** Hash functor so PrepKey can key an unordered_map. */
struct PrepKeyHasher
{
    std::size_t operator()(const PrepKey &key) const
    {
        const std::uint64_t h = mix64(key.structure, key.params);
        if constexpr (sizeof(std::size_t) >= sizeof(std::uint64_t)) {
            return static_cast<std::size_t>(h);
        } else {
            // 32-bit size_t: fold the high word in instead of
            // truncating it away, so both 64-bit inputs still
            // influence the bucket.
            return static_cast<std::size_t>(h ^ (h >> 32));
        }
    }
};

/** Where a plain circuit divides into prep prefix and suffix. */
struct PrefixSplit
{
    /** Ops [0, prefixOps) prepare the state; the rest measure it. */
    std::size_t prefixOps = 0;
};

/**
 * Split a full circuit at the trailing run of basis-change gates
 * (H, S, Sdg). The same ansatz therefore yields the same prefix
 * under every measurement basis, which is what lets the prepared
 * state be shared across them.
 */
PrefixSplit splitPrepSuffix(const Circuit &circuit);

/**
 * Prep-state identity of a circuit: the structural hash of its prep
 * prefix (the attached prep circuit's ops, or the leading
 * splitPrepSuffix() slice of a plain circuit) combined with the
 * quantized parameter hash. @p prep may be null.
 */
PrepKey prepKeyOf(const Circuit *prep, const Circuit &circuit,
                  const std::vector<double> &params);

/** Content identity of one admitted job (see identifyJobs). */
struct JobIdentity
{
    /** Ledger key and sampling-stream seed: makeJobKey(job). */
    JobKey key;
    /** prepKeyOf(job.prep, job.circuit, job.params) of a prefixed
     * job; empty for a plain job (see prepKeyFor). */
    std::optional<PrepKey> prep;
};

/**
 * Identity of every job of @p jobs, computed once at admission:
 * element i holds makeJobKey(jobs[i]) exactly and, for a prefixed
 * job, its prepKeyOf(), but the work shared across the batch is done
 * once. A run of jobs over one shared prep (pointer identity, at one
 * max(prep, suffix) parameter count) folds the prep once — its
 * prefix hash and the jobCircuitHash state after its ops — and a
 * run of bitwise-equal parameter vectors is hashed once; per job
 * only the suffix ops and measurement spec are folded. Plain jobs
 * get their JobKey from scratch. The memo is local to the call: the
 * jobs keep every prep alive while it runs, so pointer identity is
 * valid.
 */
std::vector<JobIdentity>
identifyJobs(const std::vector<CircuitJob> &jobs);

/**
 * The PrepKey of @p job, whose identifyJobs() entry is @p id: the
 * carried key of a prefixed job, or — for a plain job — its
 * splitPrepSuffix() prefix hashed now, with the carried parameter
 * hash. Equal to prepKeyOf(). Admission calls it only for jobs that
 * execute: a plain prefix costs a full op-by-op fold, which a
 * duplicate answered by the ledger never needs.
 */
PrepKey prepKeyFor(const CircuitJob &job, const JobIdentity &id);

/**
 * Sampling-stream id of a job: a pure function of its content key.
 * Every execution path that samples a job — a private BatchExecutor,
 * a shared ExecutionService session, a cache-off re-execution —
 * derives the job's RNG stream from this value, so a given
 * (backend seed, circuit, params, shots) submission draws the SAME
 * shots no matter when, where, or how often it runs. This is what
 * makes result caching a pure memoization (hit or recompute,
 * identical bits) and lets independent runtimes/sessions dedupe
 * against each other without their interleaving ever being able to
 * change a result.
 */
std::uint64_t jobStream(const JobKey &key);

} // namespace varsaw

#endif // VARSAW_SIM_CIRCUIT_HASH_HH
