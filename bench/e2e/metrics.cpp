#include "metrics.hpp"

#include <sys/resource.h>

#include <cmath>
#include <string>

namespace swl::e2e {

void set_device_metrics(Outcome& out, const tl::TlCounters& tl, const nand::NandCounters& chip,
                        const NandTiming& timing) {
  const auto writes = static_cast<double>(tl.host_writes);
  const auto per_write = [writes](double v) { return ratio(v, writes); };
  const auto per_kwrite = [writes](std::uint64_t v) {
    return ratio(1000.0 * static_cast<double>(v), writes);
  };
  out.set("tl.fast_path_frac", per_write(static_cast<double>(tl.fast_path_writes)));
  out.set("tl.gc_copies_per_write", per_write(static_cast<double>(tl.gc_live_copies)));
  out.set("tl.gc_erases_per_kwrite", per_kwrite(tl.gc_erases));
  out.set("swl.erases_per_kwrite", per_kwrite(tl.swl_erases));
  out.set("swl.copies_per_kwrite", per_kwrite(tl.swl_live_copies));
  out.set("dftl.map_reads_per_write", per_write(static_cast<double>(tl.map_reads)));
  out.set("dftl.map_writes_per_write", per_write(static_cast<double>(tl.map_writes)));
  out.set("nand.erases_per_kwrite", per_kwrite(chip.erases));

  // Simulated device time: operation counts times the modelled latencies.
  // Each cause is priced from the translation layer's own counters (a live
  // copy is one read plus one program); whatever the causes leave over is
  // unattributed — negative when two causes count the same operation.
  const auto r = static_cast<double>(timing.read_page_us);
  const auto p = static_cast<double>(timing.program_page_us);
  const auto e = static_cast<double>(timing.erase_block_us);
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double total = n(chip.reads) * r + n(chip.programs) * p + n(chip.erases) * e;
  const double host = n(tl.host_writes) * p + n(tl.host_reads) * r;
  const double gc = n(tl.gc_live_copies) * (r + p) + n(tl.gc_erases) * e;
  const double swl = n(tl.swl_live_copies) * (r + p) + n(tl.swl_erases) * e;
  const double map = n(tl.map_reads) * r + n(tl.map_writes) * p;
  out.set("nand.busy_us_per_write", per_write(total));
  out.set("nand.busy_us_per_write.host", per_write(host));
  out.set("nand.busy_us_per_write.gc", per_write(gc));
  out.set("nand.busy_us_per_write.swl", per_write(swl));
  out.set("nand.busy_us_per_write.map", per_write(map));
  const double unattributed = ratio(total - host - gc - swl - map, total);
  out.set("nand.unattributed_frac", unattributed);
  // The causes must account for the device's busy time: FTL, NFTL and the
  // host stacks attribute every operation exactly; DFTL counts a
  // translation-block relocation both as GC and as map I/O (under 1%).
  constexpr double kMaxUnattributed = 0.02;
  if (std::abs(unattributed) > kMaxUnattributed) {
    out.fail("NAND busy time by cause misses the total by " + std::to_string(unattributed));
  }
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace swl::e2e
