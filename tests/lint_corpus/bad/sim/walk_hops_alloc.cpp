// bad: no-hot-alloc — the hop walk and its batch driver (walk_hops /
// walk_batch_pipeline, sim/pipeline.cpp) are hot regions by contract,
// with no RROPT_HOT markers needed: every simulated leg runs walk_hops
// once per router hop.
#include <cstddef>
#include <vector>

namespace rr::sim {

struct Batch {
  std::vector<int> results;
};

int walk_hops(Batch& b, std::size_t p) {
  b.results.push_back(static_cast<int>(p));  // finding: no-hot-alloc
  return 0;
}

void walk_batch_pipeline(Batch& b) {
  int* scratch = new int[b.results.size() + 1];  // finding: no-hot-alloc
  delete[] scratch;
  for (std::size_t p = 0; p < b.results.size(); ++p) walk_hops(b, p);
}

}  // namespace rr::sim
