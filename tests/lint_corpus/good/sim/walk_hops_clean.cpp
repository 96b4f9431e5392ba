// good: the hop walk is implicitly hot, but an allocation-free body
// passes, a deliberate recycled-capacity push carries the standard
// RROPT_HOT_OK waiver, and *calls* to it (or allocations outside its
// body) are not implicit hot regions.
#include <cstddef>
#include <vector>

namespace rr::sim {

struct Batch {
  std::vector<int> results;
};

int walk_hops(Batch& b, std::size_t p) {
  b.results[p] = static_cast<int>(p);
  b.results.push_back(0);  // RROPT_HOT_OK: capacity recycled
  return 0;
}

int drive(Batch& b) {
  b.results.push_back(1);  // a caller's allocation is not hot
  walk_hops(b, 0);  // a call site is not hot
  return b.results.back();
}

}  // namespace rr::sim
