#include "sim/circuit_hash.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "sim/job.hh"
#include "util/rng.hh"

namespace varsaw {

namespace {

/** Incremental 64-bit hash accumulator over words. */
class HashStream
{
  public:
    void fold(std::uint64_t word) { h_ = mix64(h_, word); }

    void fold(double value)
    {
        // Canonicalize signed zero and NaN payloads so equal-valued
        // doubles hash equally.
        if (value == 0.0)
            value = 0.0;
        if (std::isnan(value))
            value = std::numeric_limits<double>::quiet_NaN();
        fold(std::bit_cast<std::uint64_t>(value));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0x243F6A8885A308D3ull; // pi fractional bits
};

/** Quantize an angle to a 2^-32-resolution grid. */
std::uint64_t
quantize(double value)
{
    const double scaled = value * 4294967296.0; // 2^32
    // Angles are O(1); anything outside the representable grid is
    // hashed by its raw bits instead of being clamped together.
    if (!std::isfinite(scaled) || std::abs(scaled) >= 9.0e18)
        return std::bit_cast<std::uint64_t>(value);
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::llround(scaled)));
}

/** Fold one gate op into the stream. */
void
foldOp(HashStream &h, const GateOp &op)
{
    h.fold(static_cast<std::uint64_t>(op.kind));
    h.fold(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(op.q0)));
    h.fold(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(op.q1)));
    h.fold(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(op.paramIndex)));
    h.fold(op.param);
}

/** Fold the measurement spec (preceded by its separator). */
void
foldMeasurements(HashStream &h, const std::vector<int> &measured)
{
    h.fold(static_cast<std::uint64_t>(0xFEEDFACEu));
    for (int q : measured)
        h.fold(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(q)));
}

/**
 * jobCircuitHash's fold state once a prefixed job's prep is in: the
 * width, the combined parameter count @p param_count, then every prep
 * op. Shared by every job over the same prep at the same count.
 */
HashStream
foldPrepHead(const Circuit &prep, int param_count)
{
    HashStream h;
    h.fold(static_cast<std::uint64_t>(prep.numQubits()));
    h.fold(static_cast<std::uint64_t>(param_count));
    for (const auto &op : prep.ops())
        foldOp(h, op);
    return h;
}

/** Finish a prefixed job's hash: suffix ops, then its measurements. */
std::uint64_t
finishSuffix(HashStream h, const Circuit &suffix)
{
    for (const auto &op : suffix.ops())
        foldOp(h, op);
    foldMeasurements(h, suffix.measuredQubits());
    return h.value();
}

/** Parameter count of the flattened (prep + suffix) circuit. */
int
flattenedParamCount(const Circuit &prep, const Circuit &suffix)
{
    return std::max(prep.numParams(), suffix.numParams());
}

/**
 * PrepKey::structure of a prep circuit or a plain circuit: the hash
 * of its ops before the trailing basis-change run. The prep circuit
 * gets the same split as a plain circuit — if the ansatz itself ends
 * with H/S/Sdg gates, those belong to the suffix in BOTH shapes, so a
 * (prep, suffix) job and its flattened twin hash to the same key.
 */
std::uint64_t
prepStructureHash(const Circuit &circuit)
{
    return circuitPrefixHash(circuit,
                             splitPrepSuffix(circuit).prefixOps);
}

/** Whether two parameter vectors are bitwise equal. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
             0);
}

} // namespace

std::uint64_t
circuitStructuralHash(const Circuit &circuit)
{
    HashStream h;
    h.fold(static_cast<std::uint64_t>(circuit.numQubits()));
    h.fold(static_cast<std::uint64_t>(circuit.numParams()));
    for (const auto &op : circuit.ops())
        foldOp(h, op);
    foldMeasurements(h, circuit.measuredQubits());
    return h.value();
}

std::uint64_t
circuitPrefixHash(const Circuit &circuit, std::size_t count)
{
    const auto &ops = circuit.ops();
    if (count > ops.size())
        count = ops.size();
    HashStream h;
    h.fold(static_cast<std::uint64_t>(circuit.numQubits()));
    for (std::size_t i = 0; i < count; ++i)
        foldOp(h, ops[i]);
    return h.value();
}

std::uint64_t
jobCircuitHash(const JobView &job)
{
    if (!job.prep)
        return circuitStructuralHash(job.circuit);
    // Mirror circuitStructuralHash over the flattened circuit:
    // width, combined parameter count, prep ops then suffix ops,
    // then the suffix's measurement spec.
    return finishSuffix(
        foldPrepHead(*job.prep,
                     flattenedParamCount(*job.prep, job.circuit)),
        job.circuit);
}

std::uint64_t
parameterHash(const std::vector<double> &params)
{
    HashStream h;
    h.fold(static_cast<std::uint64_t>(params.size()));
    for (double p : params)
        h.fold(quantize(p));
    return h.value();
}

std::size_t
JobKeyHasher::operator()(const JobKey &key) const
{
    const std::uint64_t h =
        mix64(mix64(key.circuitHash, key.paramsHash), key.shots);
    if constexpr (sizeof(std::size_t) >= sizeof(std::uint64_t)) {
        return static_cast<std::size_t>(h);
    } else {
        // 32-bit size_t: fold rather than truncate the high word.
        return static_cast<std::size_t>(h ^ (h >> 32));
    }
}

JobKey
makeJobKey(const JobView &job)
{
    return {jobCircuitHash(job), parameterHash(job.params),
            job.shots};
}

PrefixSplit
splitPrepSuffix(const Circuit &circuit)
{
    const auto &ops = circuit.ops();
    std::size_t k = ops.size();
    while (k > 0 && isBasisChangeGate(ops[k - 1].kind))
        --k;
    return {k};
}

PrepKey
prepKeyOf(const Circuit *prep, const Circuit &circuit,
          const std::vector<double> &params)
{
    return {prepStructureHash(prep ? *prep : circuit),
            parameterHash(params)};
}

std::vector<JobIdentity>
identifyJobs(const std::vector<CircuitJob> &jobs)
{
    std::vector<JobIdentity> ids;
    ids.reserve(jobs.size());
    // One-entry "same as the previous job" memos: every estimator
    // submits one prep and one parameter vector per batch. The prep
    // memo is keyed on (pointer, flattened parameter count) because
    // the count is folded before the prep ops; the parameter memo is
    // reused only for a bitwise-equal vector.
    const Circuit *memo_prep = nullptr;
    int memo_param_count = 0;
    HashStream memo_head;
    std::uint64_t memo_structure = 0;
    const std::vector<double> *memo_params = nullptr;
    std::uint64_t memo_params_hash = 0;
    for (const CircuitJob &job : jobs) {
        if (!memo_params || !sameBits(*memo_params, job.params)) {
            memo_params = &job.params;
            memo_params_hash = parameterHash(job.params);
        }
        JobIdentity id;
        id.key.paramsHash = memo_params_hash;
        id.key.shots = job.shots;
        if (job.prep) {
            const int param_count =
                flattenedParamCount(*job.prep, job.circuit);
            if (job.prep.get() != memo_prep ||
                param_count != memo_param_count) {
                memo_prep = job.prep.get();
                memo_param_count = param_count;
                memo_head = foldPrepHead(*job.prep, param_count);
                memo_structure = prepStructureHash(*job.prep);
            }
            id.key.circuitHash = finishSuffix(memo_head, job.circuit);
            id.prep = PrepKey{memo_structure, memo_params_hash};
        } else {
            id.key.circuitHash = circuitStructuralHash(job.circuit);
        }
        ids.push_back(id);
    }
    return ids;
}

PrepKey
prepKeyFor(const CircuitJob &job, const JobIdentity &id)
{
    if (id.prep)
        return *id.prep;
    return {prepStructureHash(job.circuit), id.key.paramsHash};
}

std::uint64_t
jobStream(const JobKey &key)
{
    // Domain-separated from JobKeyHasher (which feeds shots in
    // unmixed) so bucket placement and sampling streams stay
    // uncorrelated even for adversarial key sequences.
    constexpr std::uint64_t kStreamDomain = 0x5374726561'6d4964ull;
    return mix64(mix64(key.circuitHash, key.paramsHash),
                 mix64(kStreamDomain, key.shots));
}

} // namespace varsaw
