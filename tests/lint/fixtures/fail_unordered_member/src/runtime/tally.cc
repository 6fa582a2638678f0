// FAIL fixture [unordered-iter], source half: iterating a member
// declared only in the paired header must still be flagged.
#include "runtime/tally.hh"

namespace fixture {

std::uint64_t
Tally::digest() const
{
    std::uint64_t h = 0;
    for (const auto &[outcome, p] : probs_)
        h = h * 31 + outcome + static_cast<std::uint64_t>(p);
    return h;
}

} // namespace fixture
