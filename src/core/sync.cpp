#include "core/sync.hpp"

#include <sstream>
#include <thread>

#include "core/contracts.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace swl {

void cpu_relax() noexcept {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

unsigned usable_cpu_count() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

void ThreadChecker::fail(const char* what) {
  std::ostringstream os;
  os << "thread-confinement violation: " << what
     << " called from a thread that does not own the object (see core/sync.hpp ThreadChecker)";
  throw InvariantError(os.str());
}

}  // namespace swl
