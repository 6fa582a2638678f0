#include "util/pmf.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <utility>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace varsaw {

namespace {

bool
outcomeLess(const Pmf::Entry &e, std::uint64_t outcome)
{
    return e.outcome < outcome;
}

/**
 * Walk the union of two sorted supports in outcome order, calling
 * @p f(pa, pb) once per outcome with 0 for a side that lacks it.
 */
template <typename F>
void
mergeJoin(const std::vector<Pmf::Entry> &a,
          const std::vector<Pmf::Entry> &b, F &&f)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (j == b.size() ||
            (i < a.size() && a[i].outcome < b[j].outcome)) {
            f(a[i++].p, 0.0);
        } else if (i == a.size() || b[j].outcome < a[i].outcome) {
            f(0.0, b[j++].p);
        } else {
            f(a[i++].p, b[j++].p);
        }
    }
}

} // namespace

Pmf
Pmf::fromDense(int num_bits, const std::vector<double> &dense,
               double prune)
{
    if (dense.size() != (1ull << num_bits))
        panic("Pmf::fromDense: vector length is not 2^num_bits");
    Pmf pmf(num_bits);
    for (std::uint64_t x = 0; x < dense.size(); ++x)
        if (dense[x] > prune)
            pmf.entries_.push_back({x, dense[x]});
    return pmf;
}

Pmf
Pmf::fromSortedEntries(int num_bits, std::vector<Entry> entries)
{
    for (std::size_t i = 1; i < entries.size(); ++i)
        if (entries[i - 1].outcome >= entries[i].outcome)
            panic("Pmf::fromSortedEntries: outcomes do not strictly "
                  "ascend");
    Pmf pmf(num_bits);
    pmf.entries_ = std::move(entries);
    return pmf;
}

double
Pmf::prob(std::uint64_t outcome) const
{
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               outcome, outcomeLess);
    return it != entries_.end() && it->outcome == outcome ? it->p
                                                          : 0.0;
}

Pmf::Entry &
Pmf::slot(std::uint64_t outcome)
{
    // Appending in ascending order (every builder in the library)
    // skips the search.
    if (entries_.empty() || entries_.back().outcome < outcome)
        return entries_.emplace_back(Entry{outcome, 0.0});
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               outcome, outcomeLess);
    if (it->outcome != outcome)
        it = entries_.insert(it, Entry{outcome, 0.0});
    return *it;
}

void
Pmf::set(std::uint64_t outcome, double p)
{
    slot(outcome).p = p;
}

void
Pmf::accumulate(std::uint64_t outcome, double p)
{
    slot(outcome).p += p;
}

double
Pmf::totalMass() const
{
    double total = 0.0;
    for (const Entry &e : entries_)
        total += e.p;
    return total;
}

void
Pmf::normalize()
{
    const double total = totalMass();
    if (total <= 0.0)
        return;
    const double inv = 1.0 / total;
    for (Entry &e : entries_)
        e.p *= inv;
}

std::vector<double>
Pmf::toDense() const
{
    if (numBits_ > 30)
        panic("Pmf::toDense: too many bits for dense expansion");
    std::vector<double> dense(1ull << numBits_, 0.0);
    for (const Entry &e : entries_)
        dense[e.outcome] += e.p;
    return dense;
}

void
checkBitPositions(const std::vector<int> &positions, int num_bits,
                  const char *who)
{
    std::uint64_t seen = 0;
    for (int pos : positions) {
        if (pos < 0 || pos >= num_bits || pos >= 64)
            panic(std::string(who) + ": bit position " +
                  std::to_string(pos) + " outside [0, " +
                  std::to_string(num_bits) + ")");
        const std::uint64_t bit = std::uint64_t{1} << pos;
        if (seen & bit)
            panic(std::string(who) + ": bit position " +
                  std::to_string(pos) + " repeated");
        seen |= bit;
    }
}

Pmf
Pmf::marginal(const std::vector<int> &positions) const
{
    checkBitPositions(positions, numBits_, "Pmf::marginal");
    Pmf out(static_cast<int>(positions.size()));
    std::vector<Entry> &gathered = out.entries_;
    gathered.reserve(entries_.size());
    for (const Entry &e : entries_)
        gathered.push_back({gatherBits(e.outcome, positions), e.p});
    // Stable, so the entries that gather to one outcome keep their
    // source order and each merged sum runs in outcome order.
    std::stable_sort(gathered.begin(), gathered.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.outcome < b.outcome;
                     });
    std::size_t kept = 0;
    for (const Entry &e : gathered) {
        if (kept > 0 && gathered[kept - 1].outcome == e.outcome)
            gathered[kept - 1].p += e.p;
        else
            gathered[kept++] = e;
    }
    gathered.resize(kept);
    return out;
}

double
Pmf::expectationParity(std::uint64_t mask) const
{
    double e = 0.0;
    for (const Entry &entry : entries_)
        e += entry.p * paritySign(entry.outcome & mask);
    return e;
}

std::uint64_t
Pmf::argmax() const
{
    std::uint64_t best = 0;
    double best_p = -1.0;
    for (const Entry &e : entries_) {
        if (e.p > best_p) {
            best_p = e.p;
            best = e.outcome;
        }
    }
    return best;
}

double
Pmf::tvDistance(const Pmf &a, const Pmf &b)
{
    double d = 0.0;
    mergeJoin(a.entries_, b.entries_,
              [&](double pa, double pb) { d += std::abs(pa - pb); });
    return 0.5 * d;
}

double
Pmf::fidelity(const Pmf &a, const Pmf &b)
{
    double bc = 0.0;
    mergeJoin(a.entries_, b.entries_, [&](double pa, double pb) {
        if (pa > 0.0 && pb > 0.0)
            bc += std::sqrt(pa * pb);
    });
    return bc * bc;
}

double
Pmf::hellingerDistance(const Pmf &a, const Pmf &b)
{
    const double bc = std::sqrt(fidelity(a, b));
    return std::sqrt(std::max(0.0, 1.0 - bc));
}

std::ostream &
operator<<(std::ostream &os, const Pmf &pmf)
{
    // Round-trip precision, so a one-ulp difference shows.
    const std::streamsize precision = os.precision(17);
    os << "Pmf(" << pmf.numBits() << " bits){";
    const char *sep = "";
    for (const Pmf::Entry &e : pmf.entries()) {
        os << sep << e.outcome << ": " << e.p;
        sep = ", ";
    }
    os << '}';
    os.precision(precision);
    return os;
}

} // namespace varsaw
