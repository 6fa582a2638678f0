/**
 * @file
 * Cache of prepared quantum states, keyed by prep-circuit content.
 *
 * The storage half of the prefix-sharing SimEngine: a prepared
 * Statevector is a deterministic pure function of (prefix gate
 * sequence, parameter values), so once one caller has simulated it,
 * every other measurement suffix over the same prep can start from
 * the cached amplitudes instead of re-running the ansatz from
 * |0...0>.
 *
 * Entries are dense 2^n-amplitude vectors — 16 bytes per amplitude,
 * so 1 MiB at 16 qubits and 1 GiB at 26 — which is why the cache is
 * governed by a **byte budget**, not just an entry count: each
 * completed entry is charged entryBytes(n) = sizeof(complex<double>)
 * << n, and when the resident total exceeds the budget the
 * least-recently-used completed entries are evicted one at a time.
 * The entry cap is retained only as a secondary bound. In-flight
 * preparations (claimed promises) are never evicted — not by the
 * budget, the cap, or clear() — so the exactly-once concurrency
 * contract below survives any eviction pressure.
 *
 * Concurrency contract: getOrPrepare() guarantees that exactly one
 * caller runs the preparation for a given key per residency — later
 * callers (including concurrent ones) block on the first caller's
 * shared future. Because preparation is deterministic, worker
 * timing can influence neither the returned states nor, as long as
 * the working set fits the budget, the preparation counters.
 */

#ifndef VARSAW_SIM_STATE_CACHE_HH
#define VARSAW_SIM_STATE_CACHE_HH

#include <complex>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/circuit_hash.hh"
#include "sim/statevector.hh"

namespace varsaw {

/** Hit/miss and memory accounting for the prepared-state cache. */
struct StateCacheStats
{
    std::uint64_t hits = 0;   //!< answered from a cached (or in-flight) state
    std::uint64_t misses = 0; //!< preparations run (one per key per residency)
    std::uint64_t evictions = 0; //!< completed entries evicted (LRU, one at a time)
    std::uint64_t clears = 0;    //!< explicit clear() calls
    /** Completions that failed to become resident (injected
     * cache-insert faults): the cache degraded to bypass — waiters
     * still got the state, later callers re-prepare. */
    std::uint64_t insertFailures = 0;
    std::uint64_t bytesResident = 0; //!< bytes held by completed entries now
    std::uint64_t peakBytes = 0;     //!< high-water mark of bytesResident

    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/** Thread-safe, byte-budgeted LRU cache of prepared states. */
class StateCache
{
  public:
    using StatePtr = std::shared_ptr<const Statevector>;

    /** Default byte budget: 2 GiB of resident amplitudes. */
    static constexpr std::uint64_t kDefaultByteBudget = 2ull << 30;

    /** Bytes charged for one cached n-qubit state. */
    static std::uint64_t entryBytes(int num_qubits)
    {
        return static_cast<std::uint64_t>(
                   sizeof(std::complex<double>))
            << num_qubits;
    }

    /**
     * @param byte_budget Resident-amplitude budget. Exceeding it
     * evicts least-recently-used completed entries one at a time;
     * the most recently completed entry always stays resident, so a
     * single state wider than the budget still serves its own hits
     * until something newer displaces it.
     * @param max_entries Secondary entry cap (soft while every
     * entry is an in-flight claim, which are never evicted).
     */
    explicit StateCache(std::uint64_t byte_budget = kDefaultByteBudget,
                        std::size_t max_entries = 32);

    /**
     * Return the prepared state for @p key, running @p prepare at
     * most once per key per residency. Concurrent callers with the
     * same key block on the preparing caller's shared future; the
     * claim cannot be evicted or cleared while in flight.
     */
    StatePtr getOrPrepare(const PrepKey &key,
                          const std::function<StatePtr()> &prepare);

    /**
     * Drop all completed entries (statistics are kept). In-flight
     * claims survive: their waiters' futures stay valid and their
     * states enter the cache on completion.
     */
    void clear();

    /** Current entry count (including in-flight preparations). */
    std::size_t size() const;

    /** Byte budget for resident completed entries. */
    std::uint64_t byteBudget() const { return byteBudget_; }

    /** Secondary entry cap. */
    std::size_t maxEntries() const { return maxEntries_; }

    /** Bytes currently held by completed entries. */
    std::uint64_t bytesResident() const;

    /** Snapshot of the statistics. */
    StateCacheStats stats() const;

    /** Zero the statistics except the resident-byte gauges, which
     * keep describing the entries still held. */
    void resetStats();

  private:
    struct Entry
    {
        /**
         * Inserted at claim time (before preparation finishes), so
         * the map doubles as the in-flight dedupe table: whoever
         * inserts runs the preparation, everyone else waits on the
         * future.
         */
        std::shared_future<StatePtr> future;
        std::uint64_t bytes = 0; //!< 0 while in flight
        bool completed = false;
        /** Position in lru_; valid only once completed. */
        std::list<PrepKey>::iterator lruIt;
    };

    /** Evict the LRU completed entry. Caller holds mutex_. */
    void evictOneLocked();

    mutable std::mutex mutex_;
    std::uint64_t byteBudget_;
    std::size_t maxEntries_;
    std::unordered_map<PrepKey, Entry, PrepKeyHasher> entries_;
    /** Completed entries, most recently used first. */
    std::list<PrepKey> lru_;
    StateCacheStats stats_;
};

} // namespace varsaw

#endif // VARSAW_SIM_STATE_CACHE_HH
