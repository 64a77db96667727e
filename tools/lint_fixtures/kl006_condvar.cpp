// Seeded KL006 violations: a hand-rolled producer/consumer hand-off
// outside common/bounded_queue.hpp. Never compiled — exists so lint_test
// can prove the rule fires.
#include <condition_variable>  // KL006 expected
#include <deque>
#include <mutex>

struct HandRolledQueue {
  std::mutex mu;
  std::condition_variable cv;  // KL006 expected
  std::deque<int> items;
  bool stop = false;
};
