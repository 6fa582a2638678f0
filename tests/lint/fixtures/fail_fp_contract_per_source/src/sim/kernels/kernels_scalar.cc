// FAIL fixture [fp-contract]: the tree's CMakeLists.txt pins only
// this kernel TU with -ffp-contract=off instead of every TU.
namespace fixture {

double
axpy(double a, double x, double y)
{
    return a * x + y;
}

} // namespace fixture
