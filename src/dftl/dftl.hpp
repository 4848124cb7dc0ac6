// DFTL — a page-mapping translation layer whose map itself lives on flash.
//
// The in-RAM FTL of src/ftl keeps the full LBA→PPA table in memory; at
// production device sizes it does not fit. Following Gupta et al.'s DFTL (and
// Dayan & Bonnet's treatment of translation-block GC), the table is split
// into fixed-size *translation pages* stored on flash through the normal NAND
// write path:
//
//   - the Global Translation Directory (GTD, in RAM) maps each translation
//     virtual page number (tvpn = lba / lbas_per_tpage) to the flash location
//     of the current version of that translation page;
//   - a bounded Cached Mapping Table (CMT) holds the working set of
//     translation pages in RAM with exact LRU victim selection and dirty-page
//     write-back batching (evicting one dirty page opportunistically flushes
//     up to writeback_batch-1 more from the cold end, which stay resident
//     clean);
//   - blocks are classified data vs translation; each class has its own
//     write frontiers (tl::Frontier) and its own tl::VictimSelector, and
//     garbage collection picks the better-scoring candidate across the two
//     classes — translation-block GC competes for the same blocks SWL
//     levels. The layer keeps the class policy, the CMT and every erase.
//
// Data-path GC never recurses through the cache: mapping updates for
// relocated pages of non-resident translation pages are applied as direct
// read-modify-write programs of the translation page (the classic DFTL batch
// update), so clean_block never calls back into CMT eviction.
//
// Mapping I/O is metered through TlCounters::map_reads / map_writes; the
// ratio map_writes / host_writes is the mapping-write amplification surfaced
// in sweep JSON and the fig5-style endurance comparison against the in-RAM
// FTL.
//
// Crash semantics: data pages carry (lba, sequence) in their spare area
// exactly like the FTL, so acknowledged writes survive power loss regardless
// of CMT dirtiness — mount() re-derives the data truth from the spare scan
// (newest sequence wins), adopts the newest surviving version of every
// translation page, and rewrites any translation page that disagrees with
// the scanned truth before serving I/O (counted as map_writes).
#ifndef SWL_DFTL_DFTL_HPP
#define SWL_DFTL_DFTL_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "tl/free_block_pool.hpp"
#include "tl/frontier.hpp"
#include "tl/gc_policy.hpp"
#include "tl/translation_layer.hpp"
#include "tl/victim_selector.hpp"

namespace swl::dftl {

struct DftlConfig {
  /// Logical pages exported to the host. 0 = auto: the usual 98% budget
  /// shared between data pages and their translation pages.
  Lba lba_count = 0;
  /// Map entries per translation page. 0 = auto: page_size_bytes / 4 (each
  /// entry is one packed 32-bit physical page number).
  std::uint32_t lbas_per_tpage = 0;
  /// Translation pages the CMT may hold in RAM. 0 = auto: an eighth of the
  /// translation pages (>= 1). Set >= the translation-page count for an
  /// effectively infinite CMT (the FTL-equivalence canary).
  std::uint32_t cmt_capacity = 0;
  /// Dirty write-back batching: evicting a dirty translation page also
  /// flushes up to this many dirty pages total from the LRU tail (the extras
  /// stay resident, now clean). 1 = plain DFTL, no batching.
  std::uint32_t writeback_batch = 1;
  /// Garbage collection runs while free blocks < this fraction of all blocks.
  double gc_trigger_fraction = 0.002;
  /// Absolute floor of free blocks kept regardless of the fraction; at least
  /// 3 (data frontier + translation frontier + one GC destination).
  BlockIndex min_free_blocks = 4;
  /// Weight of the per-valid-page cost in the greedy victim score (both
  /// block classes score with the same weight).
  double gc_cost_weight = 1.0;
  /// Free-block allocation policy (shared by both classes).
  tl::AllocPolicy alloc_policy = tl::AllocPolicy::fifo;
  /// Diagnostic: select GC victims with the reference chip-probing scans
  /// instead of the incrementally maintained per-class tl::VictimIndex.
  /// Must select the same victims in the same order (pinned by the
  /// victim-index property test and the differential fuzzer).
  bool reference_victim_scan = false;
};

/// CMT / mapping-path statistics (diagnostic; the wear-relevant counts are in
/// TlCounters::map_reads / map_writes).
struct DftlStats {
  std::uint64_t cmt_hits = 0;
  std::uint64_t cmt_misses = 0;
  std::uint64_t cmt_evictions = 0;
  /// Dirty translation pages flushed on eviction (the primary write-backs).
  std::uint64_t writebacks = 0;
  /// Extra dirty pages flushed by write-back batching (stay resident clean).
  std::uint64_t batched_writebacks = 0;
  /// Translation pages fetched from flash into the CMT.
  std::uint64_t fetches = 0;
  /// Direct read-modify-write translation-page programs during data GC.
  std::uint64_t gc_rmw_writes = 0;
  /// Translation pages rewritten by mount() because they disagreed with the
  /// spare-area scan (crash recovery).
  std::uint64_t recovery_writes = 0;
};

/// Why a translation page was programmed (trace-sink event tag).
enum class TpageWrite : std::uint8_t {
  writeback,        ///< dirty CMT page flushed (eviction, batching, or GC of a
                    ///< dirty-resident page — dirty becomes clean)
  gc_update,        ///< direct RMW during data GC (page not resident)
  gc_relocate,      ///< translation-block GC verbatim copy (content unchanged)
  recovery,         ///< mount-time rewrite from the scanned truth
};

/// Observer of the DFTL's mapping-cache transitions; the model layer's
/// RefDftl re-derives CMT residency, dirty state and translation-page
/// versions from these events and cross-checks them against introspection.
/// Pure notification: attaching a sink must not change behavior.
class DftlTraceSink {
 public:
  virtual ~DftlTraceSink() = default;
  /// A translation page became resident. `from_flash` distinguishes a real
  /// fetch from materializing a never-written (all-unmapped) page.
  virtual void on_fetch(Lba tvpn, bool from_flash) = 0;
  /// A resident translation page was evicted; `dirty` is the production
  /// layer's view of its dirty flag at eviction time (after any write-back).
  virtual void on_evict(Lba tvpn) = 0;
  /// A resident translation page's cached content changed (host write or
  /// data-GC update of a resident page) — it is dirty now.
  virtual void on_mark_dirty(Lba tvpn) = 0;
  /// A translation page was programmed at `where` for `cause`.
  virtual void on_tpage_program(Lba tvpn, Ppa where, TpageWrite cause) = 0;
};

/// Block classification for the two-class GC (introspection/oracle support).
enum class BlockClass : std::uint8_t { free = 0, data = 1, translation = 2 };

class Dftl final : public tl::TranslationLayer {
 public:
  /// Fresh device: every block is expected to be erased. Requires a chip
  /// configured with store_payload_bytes (translation pages are byte
  /// payloads).
  Dftl(nand::NandChip& chip, DftlConfig config);

  /// Mounts an existing flash image: spare-area scan re-derives the data
  /// truth (newest sequence per LBA wins), the newest surviving version of
  /// every translation page is adopted into the GTD, and any translation
  /// page disagreeing with the scanned truth is rewritten before the mount
  /// returns (crash recovery; counted as map_writes). The CMT starts empty.
  [[nodiscard]] static std::unique_ptr<Dftl> mount(nand::NandChip& chip, DftlConfig config);

  Status write(Lba lba, std::uint64_t payload_token) override;
  Status write(Lba lba, std::uint64_t payload_token,
               std::span<const std::uint8_t> data) override;
  Status read(Lba lba, std::uint64_t* payload_token) override;
  Status read_bytes(Lba lba, std::span<std::uint8_t> out) override;

  [[nodiscard]] Lba lba_count() const noexcept override { return config_.lba_count; }
  [[nodiscard]] std::string_view name() const noexcept override { return "DFTL"; }

  void check_invariants() const override;

  // -- introspection (tests, oracles, experiments) --------------------------

  /// Effective physical address of `lba`: the CMT entry when its translation
  /// page is resident, the flash translation page otherwise (a real chip
  /// read; allocates nothing). kInvalidPpa when unmapped.
  [[nodiscard]] Ppa translate(Lba lba) const;
  /// translate() of every LBA tvpn maps, with at most one chip read: out[k]
  /// for LBA tvpn * lbas_per_tpage() + k. Requires out.size() >= that count.
  void translate_tpage(Lba tvpn, std::span<Ppa> out) const;

  /// Number of translation virtual pages.
  [[nodiscard]] Lba tpage_count() const noexcept { return tpage_count_; }
  /// Map entries per translation page (resolved, never 0).
  [[nodiscard]] std::uint32_t lbas_per_tpage() const noexcept { return config_.lbas_per_tpage; }
  /// Resolved CMT capacity (never 0).
  [[nodiscard]] std::uint32_t cmt_capacity() const noexcept { return config_.cmt_capacity; }
  /// Translation virtual page number holding `lba`'s map entry.
  [[nodiscard]] Lba tvpn_of(Lba lba) const noexcept { return lba / config_.lbas_per_tpage; }

  [[nodiscard]] bool is_resident(Lba tvpn) const;
  /// Requires is_resident(tvpn).
  [[nodiscard]] bool is_dirty(Lba tvpn) const;
  /// Flash location of the current version of `tvpn` (GTD entry);
  /// kInvalidPpa when the page was never written back.
  [[nodiscard]] Ppa tpage_location(Lba tvpn) const;
  /// CMT entry for `lba`; requires its translation page to be resident.
  [[nodiscard]] Ppa cmt_entry(Lba lba) const;
  /// Resident translation pages.
  [[nodiscard]] std::uint32_t resident_count() const noexcept { return resident_count_; }

  [[nodiscard]] BlockClass block_class(BlockIndex b) const;

  [[nodiscard]] std::size_t free_block_count() const noexcept { return pool_.size(); }
  [[nodiscard]] const DftlConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DftlStats& stats() const noexcept { return stats_; }

  /// Packed map entry of an unmapped LBA (on flash and in the CMT).
  static constexpr std::uint32_t kUnmappedEntry = 0xFFFFFFFFu;

  /// Attaches (or detaches, with nullptr) the mapping-trace observer.
  void set_trace_sink(DftlTraceSink* sink) noexcept { sink_ = sink; }

  /// Fault-injection hook for the fuzzer's --inject-bug self-test: clears
  /// the dirty flag of the first dirty CMT slot in LRU order *without*
  /// writing it back — exactly the bug a skipped write-back would cause.
  /// Returns false when no slot is dirty. Never used outside tests.
  bool debug_drop_first_dirty();

 protected:
  void do_collect_blocks(BlockIndex first, BlockIndex count) override;

 private:
  /// Formats (mount = false) or mounts an existing image (see mount()).
  Dftl(nand::NandChip& chip, DftlConfig config, bool mount);

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Shared constructor body (config normalization and validation).
  void init_config();

  /// Spare-area scan that rebuilds the GTD, pool, frontiers and block
  /// classes, then reconciles translation pages against the scanned truth.
  void rebuild_from_flash();

  // -- packed map-entry helpers ---------------------------------------------
  [[nodiscard]] std::uint32_t pack_entry(Ppa p) const noexcept {
    return p.valid() ? p.block * chip().geometry().pages_per_block + p.page : kUnmappedEntry;
  }
  [[nodiscard]] Ppa unpack_entry(std::uint32_t e) const noexcept {
    if (e == kUnmappedEntry) return kInvalidPpa;
    const PageIndex ppb = chip().geometry().pages_per_block;
    return Ppa{e / ppb, e % ppb};
  }

  [[nodiscard]] std::uint32_t* slot_entries(std::uint32_t slot) noexcept {
    return cmt_arena_.data() + static_cast<std::size_t>(slot) * tpage_stride_;
  }
  [[nodiscard]] const std::uint32_t* slot_entries(std::uint32_t slot) const noexcept {
    return cmt_arena_.data() + static_cast<std::size_t>(slot) * tpage_stride_;
  }

  /// Bytes of a flash translation page (a zero-copy view into the chip),
  /// read without touching the map-read counter.
  [[nodiscard]] std::span<const std::uint8_t> tpage_image(Ppa src) const;
  /// Current bytes of tvpn's translation page: the CMT slot when resident,
  /// else its flash version; nullptr when never written.
  [[nodiscard]] const std::uint8_t* effective_image(Lba tvpn) const;
  /// Decodes a flash translation page into `entries`; a real chip read
  /// (counted as map_read).
  void decode_tpage(Ppa src, std::uint32_t* entries);

  // -- CMT ------------------------------------------------------------------
  void lru_unlink(std::uint32_t slot);
  void lru_push_front(std::uint32_t slot);
  void lru_touch(std::uint32_t slot);

  /// Makes tvpn resident and returns its slot; may evict (write back) the
  /// LRU victim. Never triggers GC — callers maintain space first. Returns
  /// kNoSlot when the eviction write-back found no destination.
  std::uint32_t ensure_resident(Lba tvpn);

  /// True when a CMT miss could not be admitted right now: every slot is
  /// occupied, the LRU victim is dirty, and its write-back would need a new
  /// translation-frontier block the pool cannot spare.
  [[nodiscard]] bool cannot_afford_writeback() const;

  /// Programs the slot's translation page to the translation frontier,
  /// updates the GTD and clears the dirty flag. `cause` tags the sink event.
  /// Returns false when no destination was available (nothing mutated).
  bool write_back_slot(std::uint32_t slot, TpageWrite cause);

  /// Programs `entries` as tvpn's translation page (GTD update + old-version
  /// invalidation); the write path shared by write-backs, GC updates and
  /// mount recovery. The page is programmed straight from `entries`, which
  /// must span tpage_stride_ words with a zero tail. Returns kInvalidPpa
  /// when no destination was available.
  Ppa try_program_tpage(Lba tvpn, const std::uint32_t* entries, TpageWrite cause);

  // -- write/read paths -----------------------------------------------------
  Status write_internal(Lba lba, std::uint64_t payload_token,
                        std::span<const std::uint8_t> data);
  Status read_impl(Lba lba, std::uint64_t* payload_token);
  /// Points lba's entry in its resident `slot` at `dst`, invalidating the
  /// superseded page; the tail shared by both host write paths.
  void remap_host_write(std::uint32_t slot, Lba lba, Ppa dst);
  /// Physical address a host read of `lba` resolves (kInvalidPpa when
  /// unmapped); the CMT lookup shared by read() and read_bytes().
  Ppa map_for_read(Lba lba);

  /// Record-replay fast paths: the fast write handles the common case (fast
  /// media, pool above trigger, frontier open, translation page resident)
  /// and bails to write() otherwise; the fast read is read_impl itself.
  static bool fast_write_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t payload_token);
  static Status fast_read_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t* payload_token);

  // -- space management / GC ------------------------------------------------
  void maybe_gc();
  bool gc_once();
  bool clean_block(BlockIndex victim);
  bool clean_data_block(BlockIndex victim);
  bool clean_translation_block(BlockIndex victim);

  void sync_victim(BlockIndex b) {
    switch (class_of_[b]) {
      case BlockClass::data: data_victims_.mark_dirty(b); break;
      case BlockClass::translation: trans_victims_.mark_dirty(b); break;
      case BlockClass::free: break;  // pooled blocks never hold scores
    }
  }

  /// True when the next translation-page program must open a new block.
  [[nodiscard]] bool trans_frontier_full() const noexcept {
    return trans_.full(chip().geometry().pages_per_block);
  }

  /// True when `b` currently serves as any write frontier.
  [[nodiscard]] bool is_frontier(BlockIndex b) const noexcept {
    return b == host_.block || b == gc_.block || b == trans_.block;
  }

  /// Queues `tvpn` for a mount-time recovery rewrite (deduplicated).
  void mount_enqueue(Lba tvpn);

  DftlConfig config_;
  Lba tpage_count_ = 0;

  // GTD: flash location of each translation page's current version.
  std::vector<Ppa> gtd_;

  // Words per translation-page buffer (CMT slot, rmw_entries_, mount's
  // expected page): one flash page, so its bytes are the page image. Words
  // past lbas_per_tpage are never written and stay zero.
  std::size_t tpage_stride_ = 0;

  // CMT: a flat arena of capacity × tpage_stride_ packed entries plus
  // per-slot metadata and an exact-LRU doubly linked list (index-based, so
  // residency churn allocates nothing).
  std::vector<std::uint32_t> cmt_arena_;
  std::vector<std::uint32_t> slot_of_;   // tvpn → slot (kNoSlot when absent)
  std::vector<Lba> tvpn_of_slot_;
  std::vector<std::uint8_t> slot_dirty_;
  std::vector<std::uint32_t> lru_prev_;
  std::vector<std::uint32_t> lru_next_;
  std::uint32_t lru_head_ = kNoSlot;  // most recently used
  std::uint32_t lru_tail_ = kNoSlot;  // least recently used
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t resident_count_ = 0;

  tl::FreeBlockPool pool_;
  std::vector<BlockClass> class_of_;

  tl::VictimSelector data_victims_;
  tl::VictimSelector trans_victims_;

  tl::Frontier host_;   // data class, host writes
  tl::Frontier gc_;     // data class, GC copies
  tl::Frontier trans_;  // translation class, all tpage writes

  std::uint64_t write_sequence_ = 0;
  // Free-block level below which GC runs (tl::gc_trigger_level).
  BlockIndex gc_trigger_ = 4;

  // Scratch entries for direct GC read-modify-writes (tpage_stride_ words).
  std::vector<std::uint32_t> rmw_entries_;
  // Data-GC scratch, reserved for a whole block so no victim allocates: the
  // victim's live pages grouped by translation page, and one group's copies.
  struct LivePage {
    Lba tvpn;
    PageIndex page;
  };
  struct MovedPage {
    Ppa src;
    Ppa dst;
    Lba lba;
  };
  std::vector<LivePage> gc_live_;
  std::vector<MovedPage> gc_moved_;

  DftlStats stats_;
  DftlTraceSink* sink_ = nullptr;

  // Mount-reconcile mode (non-null only inside rebuild_from_flash): the
  // scanned data truth is authoritative — GC relocations update it directly
  // and re-queue the affected translation pages instead of programming them
  // inline.
  std::vector<Ppa>* mount_truth_ = nullptr;
  std::vector<std::uint8_t>* mount_pending_flag_ = nullptr;
  std::vector<Lba>* mount_pending_ = nullptr;
};

}  // namespace swl::dftl

#endif  // SWL_DFTL_DFTL_HPP
