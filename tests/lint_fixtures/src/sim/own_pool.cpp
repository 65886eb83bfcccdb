// lint-fixture: expect(thread-spawn-sites)
// A sim pass that starts its own workers instead of running on
// sim::run_phases: its threads skip the RunControl poll, the sim-phase
// fault site and the shared abort gate.
#include <future>
#include <thread>
#include <vector>

void fixture_own_pool(std::size_t threads) {
  std::vector<std::future<void>> futures;
  for (std::size_t w = 0; w < threads; ++w)
    futures.push_back(std::async(std::launch::async, [] { std::this_thread::yield(); }));
  std::thread extra([] {});
  extra.join();
  const unsigned hw = std::thread::hardware_concurrency();  // does not count
  (void)hw;
}
