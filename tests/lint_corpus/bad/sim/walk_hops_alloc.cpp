// bad: no-hot-alloc — the hop walk (walk_hops, sim/pipeline.cpp) is a hot
// region by contract, with no RROPT_HOT markers needed: every simulated
// leg runs walk_hops once per router hop.
#include <cstddef>
#include <vector>

namespace rr::sim {

struct Batch {
  std::vector<int> results;
};

int walk_hops(Batch& b, std::size_t p) {
  b.results.push_back(static_cast<int>(p));  // finding: no-hot-alloc
  int* scratch = new int[b.results.size() + 1];  // finding: no-hot-alloc
  delete[] scratch;
  return 0;
}

}  // namespace rr::sim
