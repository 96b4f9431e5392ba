// good: the hop walk and its batch driver are implicitly hot, but
// allocation-free bodies pass, a deliberate recycled-capacity push carries
// the standard RROPT_HOT_OK waiver, and *calls* to them (or allocations
// outside their bodies) are not implicit hot regions.
#include <cstddef>
#include <vector>

namespace rr::sim {

struct Batch {
  std::vector<int> results;
  std::size_t live = 0;
};

int walk_hops(Batch& b, std::size_t p) {
  b.results[p] = static_cast<int>(p);
  b.results.push_back(0);  // RROPT_HOT_OK: capacity recycled
  return 0;
}

void walk_batch_pipeline(Batch& b) {
  for (std::size_t p = 0; p < b.live; ++p) walk_hops(b, p);
  b.live = 0;
}

int drive(Batch& b) {
  b.results.push_back(1);  // a caller's allocation is not hot
  walk_batch_pipeline(b);  // a call site is not hot
  return b.results.back();
}

}  // namespace rr::sim
