// FAIL fixture [unordered-iter], header half: the unordered member
// is declared here, where the iterating .cc cannot see it.
#include <cstdint>
#include <unordered_map>

namespace fixture {

class Tally
{
  public:
    std::uint64_t digest() const;

  private:
    std::unordered_map<std::uint64_t, double> probs_;
};

} // namespace fixture
