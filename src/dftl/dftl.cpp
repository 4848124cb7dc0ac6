#include "dftl/dftl.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/contracts.hpp"

namespace swl::dftl {

// On flash a translation page is the in-RAM entry array verbatim (u32 entries,
// then zero padding to the page): decoding is one memcpy and programs go
// straight from the entries, so the host must be little-endian like the format.
static_assert(std::endian::native == std::endian::little,
              "the translation-page codec assumes a little-endian host");

using nand::PageState;

namespace {

/// Entry k of a translation-page image; unmapped for a null (never-written)
/// page.
std::uint32_t image_entry(const std::uint8_t* image, std::uint32_t k) noexcept {
  std::uint32_t e = Dftl::kUnmappedEntry;
  if (image != nullptr) std::memcpy(&e, image + 4ULL * k, sizeof e);
  return e;
}

}  // namespace

Dftl::Dftl(nand::NandChip& chip, DftlConfig config) : Dftl(chip, config, /*mount=*/false) {}

Dftl::Dftl(nand::NandChip& chip, DftlConfig config, bool mount)
    : tl::TranslationLayer(chip),
      config_(config),
      pool_(chip.geometry().block_count, config.alloc_policy),
      data_victims_(chip.geometry().block_count, chip.geometry().pages_per_block,
                    config.gc_cost_weight, config.reference_victim_scan),
      trans_victims_(chip.geometry().block_count, chip.geometry().pages_per_block,
                     config.gc_cost_weight, config.reference_victim_scan) {
  init_config();
  if (mount) {
    rebuild_from_flash();
    return;
  }
  for (BlockIndex b = 0; b < chip.geometry().block_count; ++b) {
    pool_.add(b, chip.erase_count(b));
  }
}

std::unique_ptr<Dftl> Dftl::mount(nand::NandChip& chip, DftlConfig config) {
  return std::unique_ptr<Dftl>(new Dftl(chip, config, /*mount=*/true));
}

void Dftl::init_config() {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(chip().config().store_payload_bytes,
              "DFTL stores translation pages as byte payloads; configure the chip "
              "with store_payload_bytes");
  if (config_.lbas_per_tpage == 0) config_.lbas_per_tpage = geo.page_size_bytes / 4;
  SWL_REQUIRE(config_.lbas_per_tpage >= 1, "page too small for one map entry");
  SWL_REQUIRE(config_.lbas_per_tpage * 4ULL <= geo.page_size_bytes,
              "lbas_per_tpage entries do not fit one page");
  SWL_REQUIRE(geo.page_count() < kUnmappedEntry, "too many pages for packed 32-bit map entries");
  SWL_REQUIRE(config_.min_free_blocks >= 3,
              "DFTL needs at least 3 reserve blocks (data frontier + translation "
              "frontier + GC destination)");
  SWL_REQUIRE(geo.block_count > config_.min_free_blocks, "flash too small for the reserve");
  SWL_REQUIRE(config_.gc_trigger_fraction >= 0.0 && config_.gc_trigger_fraction < 1.0,
              "gc_trigger_fraction out of range");
  SWL_REQUIRE(config_.writeback_batch >= 1, "writeback_batch must be >= 1");
  const std::uint64_t reserve_pages =
      static_cast<std::uint64_t>(config_.min_free_blocks) * geo.pages_per_block;
  SWL_REQUIRE(geo.page_count() > reserve_pages, "flash too small for a DFTL");
  if (config_.lba_count == 0) {
    // Split the usual 98% budget between data pages and the translation
    // pages that map them: R data pages need 1 translation page.
    const std::uint64_t budget =
        std::min(geo.page_count() * 98 / 100, geo.page_count() - reserve_pages);
    const std::uint64_t r = config_.lbas_per_tpage;
    config_.lba_count = static_cast<Lba>(budget * r / (r + 1));
  }
  SWL_REQUIRE(config_.lba_count >= 1, "flash too small for a DFTL");
  tpage_count_ = static_cast<Lba>(
      (static_cast<std::uint64_t>(config_.lba_count) + config_.lbas_per_tpage - 1) /
      config_.lbas_per_tpage);
  SWL_REQUIRE(config_.lba_count + tpage_count_ + reserve_pages <= geo.page_count(),
              "DFTL needs room for every data page, every translation page and "
              "the block reserve");
  if (config_.cmt_capacity == 0) {
    config_.cmt_capacity = std::max<std::uint32_t>(1, tpage_count_ / 8);
  }
  // Capacity beyond the translation-page count buys nothing.
  config_.cmt_capacity = std::min<std::uint32_t>(config_.cmt_capacity, tpage_count_);

  gtd_.assign(tpage_count_, kInvalidPpa);
  tpage_stride_ = (geo.page_size_bytes + 3) / 4;
  // Zero-filled: every slot's tail past lbas_per_tpage is the page padding.
  cmt_arena_.assign(static_cast<std::size_t>(config_.cmt_capacity) * tpage_stride_, 0);
  slot_of_.assign(tpage_count_, kNoSlot);
  tvpn_of_slot_.assign(config_.cmt_capacity, kInvalidLba);
  slot_dirty_.assign(config_.cmt_capacity, 0);
  lru_prev_.assign(config_.cmt_capacity, kNoSlot);
  lru_next_.assign(config_.cmt_capacity, kNoSlot);
  free_slots_.clear();
  free_slots_.reserve(config_.cmt_capacity);
  for (std::uint32_t s = config_.cmt_capacity; s > 0; --s) free_slots_.push_back(s - 1);

  class_of_.assign(geo.block_count, BlockClass::free);
  rmw_entries_.assign(tpage_stride_, 0);
  gc_live_.reserve(geo.pages_per_block);
  gc_moved_.reserve(geo.pages_per_block);
  gc_trigger_ = tl::gc_trigger_level(config_.gc_trigger_fraction, config_.min_free_blocks,
                                     geo.block_count);
  set_fast_paths(&Dftl::fast_write_thunk, &Dftl::fast_read_thunk);
}

// -- packed translation-page codec -------------------------------------------

std::span<const std::uint8_t> Dftl::tpage_image(Ppa src) const {
  const nand::PageReadResult r = chip().read_page(src);
  SWL_ASSERT(r.status == Status::ok, "translation page unreadable");
  SWL_ASSERT(r.spare.role == nand::PageRole::translation,
             "GTD points at a non-translation page");
  SWL_ASSERT(r.data.size() >= 4ULL * config_.lbas_per_tpage,
             "translation page stored without its byte payload");
  return r.data;
}

void Dftl::decode_tpage(Ppa src, std::uint32_t* entries) {
  std::memcpy(entries, tpage_image(src).data(), 4ULL * config_.lbas_per_tpage);
  count_map_read();
}

// -- CMT (exact LRU over a flat arena) ---------------------------------------

void Dftl::lru_unlink(std::uint32_t slot) {
  const std::uint32_t prev = lru_prev_[slot];
  const std::uint32_t next = lru_next_[slot];
  if (prev != kNoSlot) lru_next_[prev] = next; else lru_head_ = next;
  if (next != kNoSlot) lru_prev_[next] = prev; else lru_tail_ = prev;
  lru_prev_[slot] = kNoSlot;
  lru_next_[slot] = kNoSlot;
}

void Dftl::lru_push_front(std::uint32_t slot) {
  lru_prev_[slot] = kNoSlot;
  lru_next_[slot] = lru_head_;
  if (lru_head_ != kNoSlot) lru_prev_[lru_head_] = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNoSlot) lru_tail_ = slot;
}

void Dftl::lru_touch(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  lru_unlink(slot);
  lru_push_front(slot);
}

Ppa Dftl::try_program_tpage(Lba tvpn, const std::uint32_t* entries, TpageWrite cause) {
  const std::span<const std::uint8_t> image{reinterpret_cast<const std::uint8_t*>(entries),
                                            chip().geometry().page_size_bytes};
  const Ppa dst = trans_.program_next(pool_, chip(), /*keep_free=*/0, [&](Ppa to) {
    class_of_[to.block] = BlockClass::translation;
    // spare.lba carries the translation virtual page number; the token
    // mirrors it so the simulated ECC covers something stable.
    const Status st = chip().program_page(
        to, tvpn, nand::SpareArea{tvpn, ++write_sequence_, 0, nand::PageRole::translation},
        image);
    sync_victim(to.block);
    return st;
  });
  if (!dst.valid()) return kInvalidPpa;
  const Ppa old = gtd_[tvpn];
  if (old.valid()) {
    const Status inv = chip().invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale translation page was not invalidatable");
    sync_victim(old.block);
  }
  gtd_[tvpn] = dst;
  count_map_write();
  if (sink_ != nullptr) sink_->on_tpage_program(tvpn, dst, cause);
  return dst;
}

bool Dftl::write_back_slot(std::uint32_t slot, TpageWrite cause) {
  const Ppa dst = try_program_tpage(tvpn_of_slot_[slot], slot_entries(slot), cause);
  if (!dst.valid()) return false;
  slot_dirty_[slot] = 0;
  return true;
}

bool Dftl::cannot_afford_writeback() const {
  // A miss with every slot occupied and a dirty LRU tail needs a write-back;
  // when that write-back would have to open a new translation-frontier block
  // and fewer than two free blocks remain (the last one is reserved for GC),
  // the caller must not evict. Writes report out_of_space; reads fall back
  // to an uncached peek of the flash translation page.
  if (!free_slots_.empty()) return false;
  if (lru_tail_ == kNoSlot || slot_dirty_[lru_tail_] == 0) return false;
  return trans_frontier_full() && pool_.size() < 2;
}

std::uint32_t Dftl::ensure_resident(Lba tvpn) {
  std::uint32_t slot = slot_of_[tvpn];
  if (slot != kNoSlot) {
    ++stats_.cmt_hits;
    lru_touch(slot);
    return slot;
  }
  ++stats_.cmt_misses;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = lru_tail_;
    SWL_ASSERT(slot != kNoSlot, "CMT has neither a free slot nor an LRU tail");
    if (slot_dirty_[slot] != 0) {
      if (!write_back_slot(slot, TpageWrite::writeback)) return kNoSlot;
      ++stats_.writebacks;
      // Dirty write-back batching: flush further dirty pages from the cold
      // end of the LRU list while the batch allows and the open translation
      // frontier has room (batched flushes never open a new block). The
      // extras stay resident, now clean.
      std::uint32_t flushed = 1;
      std::uint32_t cur = lru_prev_[slot];
      while (flushed < config_.writeback_batch && cur != kNoSlot) {
        const std::uint32_t next_cold = lru_prev_[cur];
        if (slot_dirty_[cur] != 0) {
          if (trans_frontier_full()) break;
          if (!write_back_slot(cur, TpageWrite::writeback)) break;
          ++stats_.batched_writebacks;
          ++flushed;
        }
        cur = next_cold;
      }
    }
    ++stats_.cmt_evictions;
    const Lba victim = tvpn_of_slot_[slot];
    lru_unlink(slot);
    slot_of_[victim] = kNoSlot;
    --resident_count_;
    if (sink_ != nullptr) sink_->on_evict(victim);
  }
  std::uint32_t* entries = slot_entries(slot);
  const Ppa tpage = gtd_[tvpn];
  if (tpage.valid()) {
    decode_tpage(tpage, entries);
    ++stats_.fetches;
  } else {
    std::fill(entries, entries + config_.lbas_per_tpage, kUnmappedEntry);
  }
  slot_dirty_[slot] = 0;
  tvpn_of_slot_[slot] = tvpn;
  slot_of_[tvpn] = slot;
  lru_push_front(slot);
  ++resident_count_;
  if (sink_ != nullptr) sink_->on_fetch(tvpn, tpage.valid());
  return slot;
}

// -- host paths ---------------------------------------------------------------

Status Dftl::write(Lba lba, std::uint64_t payload_token) {
  return write_internal(lba, payload_token, {});
}

Status Dftl::write(Lba lba, std::uint64_t payload_token, std::span<const std::uint8_t> data) {
  SWL_REQUIRE(data.size() == chip().geometry().page_size_bytes,
              "data must be exactly one page");
  return write_internal(lba, payload_token, data);
}

Status Dftl::write_internal(Lba lba, std::uint64_t payload_token,
                            std::span<const std::uint8_t> data) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  maybe_gc();
  const Lba tvpn = tvpn_of(lba);
  if (slot_of_[tvpn] == kNoSlot && cannot_afford_writeback()) return Status::out_of_space;
  const std::uint32_t slot = ensure_resident(tvpn);
  if (slot == kNoSlot) return Status::out_of_space;  // eviction write-back had no space
  // Same reserve rule as the FTL: a host write may only open a new frontier
  // block when at least one other free block remains for GC.
  const Ppa dst = host_.program_next(pool_, chip(), /*keep_free=*/1, [&](Ppa to) {
    class_of_[to.block] = BlockClass::data;
    const Status st =
        chip().program_page(to, payload_token, nand::SpareArea{lba, ++write_sequence_, 0}, data);
    sync_victim(to.block);  // a failed program consumes the page either way
    return st;
  });
  if (!dst.valid()) return Status::out_of_space;
  remap_host_write(slot, lba, dst);
  return Status::ok;
}

void Dftl::remap_host_write(std::uint32_t slot, Lba lba, Ppa dst) {
  std::uint32_t* entries = slot_entries(slot);
  const std::uint32_t idx = lba % config_.lbas_per_tpage;
  const Ppa old = unpack_entry(entries[idx]);
  if (old.valid()) {
    const Status inv = chip().invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale mapping pointed at an unprogrammed page");
    sync_victim(old.block);
  }
  entries[idx] = pack_entry(dst);
  slot_dirty_[slot] = 1;
  if (sink_ != nullptr) sink_->on_mark_dirty(tvpn_of(lba));
  finish_host_write();
}

Ppa Dftl::map_for_read(Lba lba) {
  // A cache miss may have to write back a dirty translation page, so reads
  // maintain the free-block level too (unlike the in-RAM FTL, a DFTL read is
  // not write-free).
  if (pool_.size() < gc_trigger_) maybe_gc();
  const Lba tvpn = tvpn_of(lba);
  const std::uint32_t idx = lba % config_.lbas_per_tpage;
  if (slot_of_[tvpn] != kNoSlot || !cannot_afford_writeback()) {
    const std::uint32_t slot = ensure_resident(tvpn);
    if (slot != kNoSlot) return unpack_entry(slot_entries(slot)[idx]);
  }
  // No room to evict (or the eviction write-back found no destination,
  // possible under media-error storms): peek the map entry straight from
  // flash, uncached. Reads must stay available even with a full dirty CMT
  // and an exhausted pool.
  const Ppa tpage = gtd_[tvpn];
  if (!tpage.valid()) return kInvalidPpa;
  decode_tpage(tpage, rmw_entries_.data());
  return unpack_entry(rmw_entries_[idx]);
}

Status Dftl::read_impl(Lba lba, std::uint64_t* payload_token) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  SWL_REQUIRE(payload_token != nullptr, "null output");
  const Ppa src = map_for_read(lba);
  if (!src.valid()) return Status::lba_not_mapped;
  const std::uint64_t token = chip().read_token(src);
  SWL_ASSERT(chip().spare(src).lba == lba, "spare-area LBA does not match the mapping");
  *payload_token = token;
  finish_host_read();
  return Status::ok;
}

Status Dftl::read(Lba lba, std::uint64_t* payload_token) { return read_impl(lba, payload_token); }

Status Dftl::read_bytes(Lba lba, std::span<std::uint8_t> out) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  SWL_REQUIRE(out.size() == chip().geometry().page_size_bytes, "out must be exactly one page");
  const Ppa src = map_for_read(lba);
  if (!src.valid()) return Status::lba_not_mapped;
  const nand::PageReadResult r = chip().read_page(src);
  SWL_ASSERT(r.status == Status::ok, "mapping pointed at an unreadable page");
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  std::copy(r.data.begin(), r.data.end(), out.begin());
  finish_host_read();
  return Status::ok;
}

Status Dftl::fast_read_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t* payload_token) {
  return static_cast<Dftl&>(base).read_impl(lba, payload_token);
}

bool Dftl::fast_write_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t payload_token) {
  Dftl& self = static_cast<Dftl&>(base);
  nand::NandChip& chip = self.chip();
  // Bail-out checks first — nothing below them may mutate state. The fast
  // path requires the translation page to be resident (no eviction, no
  // fetch), the host frontier open and the pool above the GC trigger, so it
  // is write_internal's resident case without the checks.
  if (lba >= self.config_.lba_count || !chip.fast_media()) return false;
  if (self.pool_.size() < self.gc_trigger_) return false;
  if (self.host_.full(chip.geometry().pages_per_block)) return false;
  const Lba tvpn = self.tvpn_of(lba);
  const std::uint32_t slot = self.slot_of_[tvpn];
  if (slot == kNoSlot) return false;
  // Committed.
  ++self.stats_.cmt_hits;
  self.lru_touch(slot);
  const Ppa dst{self.host_.block, self.host_.next++};
  const Status st =
      chip.program_page(dst, payload_token, nand::SpareArea{lba, ++self.write_sequence_, 0});
  SWL_ASSERT(st == Status::ok, "fast-path frontier page was not programmable");
  self.sync_victim(dst.block);
  self.remap_host_write(slot, lba, dst);
  return true;
}

// -- garbage collection -------------------------------------------------------

void Dftl::maybe_gc() {
  const PageIndex pages = chip().geometry().pages_per_block;
  host_.seal_if_full(pages);
  gc_.seal_if_full(pages);
  trans_.seal_if_full(pages);
  while (pool_.size() < gc_trigger_) {
    if (!gc_once()) break;
  }
}

bool Dftl::gc_once() {
  // One positive-score candidate per block class along each class's own
  // cyclic scan; when both classes have one, the better greedy score wins
  // (ties to data — the more numerous class). Translation-block GC thereby
  // competes with data GC for the same free blocks SWL levels.
  const auto in_class = [this](BlockClass cls) {
    return [this, cls](BlockIndex b) { return class_of_[b] == cls; };
  };
  const auto positive = [&](tl::VictimSelector& victims, BlockClass cls) {
    return victims.first_positive(
        chip(), [&](BlockIndex b) { return class_of_[b] == cls && !is_frontier(b); });
  };
  const BlockIndex d = positive(data_victims_, BlockClass::data);
  const BlockIndex t = positive(trans_victims_, BlockClass::translation);
  BlockIndex victim = kInvalidBlock;
  if (d != kInvalidBlock && t != kInvalidBlock) {
    const double ds = tl::gc_score(chip().valid_page_count(d), chip().invalid_page_count(d),
                                   config_.gc_cost_weight);
    const double ts = tl::gc_score(chip().valid_page_count(t), chip().invalid_page_count(t),
                                   config_.gc_cost_weight);
    victim = (ts > ds) ? t : d;
  } else if (d != kInvalidBlock) {
    victim = d;
  } else if (t != kInvalidBlock) {
    victim = t;
  } else {
    // Most-invalid fallback across both classes in one order; frontiers are
    // eligible (superseded copies pile up there, and excluding them could
    // wedge the device).
    tl::FallbackPick pick;
    for (const BlockIndex b : {data_victims_.most_invalid(chip(), in_class(BlockClass::data)),
                               trans_victims_.most_invalid(
                                   chip(), in_class(BlockClass::translation))}) {
      if (b != kInvalidBlock) pick.offer(chip(), b);
    }
    victim = pick.block;
  }
  return victim != kInvalidBlock && clean_block(victim);
}

bool Dftl::clean_block(BlockIndex victim) {
  return class_of_[victim] == BlockClass::translation ? clean_translation_block(victim)
                                                      : clean_data_block(victim);
}

bool Dftl::clean_data_block(BlockIndex victim) {
  const auto& geo = chip().geometry();
  SWL_ASSERT(victim != trans_.block, "data victim is the translation frontier");
  // Collect the victim's live pages and group them by translation page, so
  // one direct read-modify-write per distinct non-resident translation page
  // covers all its relocated entries (the DFTL batch update).
  std::vector<LivePage>& live = gc_live_;
  live.clear();
  for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
    if (chip().page_state({victim, p}) != PageState::valid) continue;
    const Lba lba = chip().spare({victim, p}).lba;
    SWL_ASSERT(lba < config_.lba_count, "valid data page with an out-of-range LBA");
    live.push_back({tvpn_of(lba), p});
  }
  std::sort(live.begin(), live.end(), [](const LivePage& a, const LivePage& b) {
    return a.tvpn != b.tvpn ? a.tvpn < b.tvpn : a.page < b.page;
  });
  // Exact destination accounting before touching anything (block-granular:
  // data copies draw on the GC frontier, map rewrites on the translation
  // frontier, and both classes open new blocks from the shared pool).
  std::uint64_t n_rmw = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if ((i == 0 || live[i].tvpn != live[i - 1].tvpn) && slot_of_[live[i].tvpn] == kNoSlot) {
      ++n_rmw;
    }
  }
  const std::uint64_t n_copy = live.size();
  const std::uint64_t gc_space = gc_.room(geo.pages_per_block, victim);
  const std::uint64_t trans_space = trans_.room(geo.pages_per_block, victim);
  const std::uint64_t data_blocks_needed =
      n_copy > gc_space ? (n_copy - gc_space + geo.pages_per_block - 1) / geo.pages_per_block
                        : 0;
  const std::uint64_t trans_blocks_needed =
      n_rmw > trans_space ? (n_rmw - trans_space + geo.pages_per_block - 1) / geo.pages_per_block
                          : 0;
  if (data_blocks_needed + trans_blocks_needed > pool_.size()) return false;
  host_.close_if(victim);
  gc_.close_if(victim);

  // Relocate group by group. Every abort point below leaves the device
  // consistent: a group's source pages stay valid and mapped until its map
  // update landed, and copies are rolled back (invalidated) when it did not.
  std::size_t i = 0;
  while (i < live.size()) {
    const Lba tvpn = live[i].tvpn;
    std::size_t end = i;
    while (end < live.size() && live[end].tvpn == tvpn) ++end;
    const std::uint32_t slot = slot_of_[tvpn];
    const bool resident = slot != kNoSlot;
    std::uint32_t* entries = nullptr;
    if (mount_truth_ != nullptr) {
      // Mount reconcile: the scanned truth is authoritative (the flash
      // translation page may be stale or missing entirely) and the CMT is
      // empty — moves are recorded in the truth table below.
      SWL_ASSERT(!resident, "resident translation page during mount");
    } else if (resident) {
      entries = slot_entries(slot);
    } else {
      // The mapping of a non-resident translation page lives on flash: every
      // valid data page must be reachable through it.
      SWL_ASSERT(gtd_[tvpn].valid(), "valid data page with no flash translation page");
      decode_tpage(gtd_[tvpn], rmw_entries_.data());
      entries = rmw_entries_.data();
    }
    // Copy the group's pages, patching the (cached or scratch) entries.
    std::vector<MovedPage>& moved = gc_moved_;
    moved.clear();
    bool aborted = false;
    for (std::size_t k = i; k < end; ++k) {
      const Ppa src{victim, live[k].page};
      const nand::SpareArea& spare = chip().spare(src);
      const Lba lba = spare.lba;
      const std::uint32_t idx = lba % config_.lbas_per_tpage;
      if (entries != nullptr) {
        SWL_ASSERT(unpack_entry(entries[idx]) == src,
                   "valid page not referenced by its translation page");
      } else {
        SWL_ASSERT((*mount_truth_)[lba] == src, "valid page not in the mount truth");
      }
      const Ppa dst = gc_.copy_next(
          pool_, chip(), /*keep_free=*/0, src, lba, spare.role,
          [this] { return ++write_sequence_; },
          [this](Ppa to) {
            class_of_[to.block] = BlockClass::data;
            sync_victim(to.block);
          });
      if (!dst.valid()) {
        aborted = true;  // out of destinations (media-error storms / SWL at pressure)
        break;
      }
      if (entries != nullptr) entries[idx] = pack_entry(dst);
      moved.push_back({src, dst, lba});
    }
    // Land the group's map update, then retire the sources.
    bool landed = false;
    if (!aborted && !moved.empty()) {
      if (mount_truth_ != nullptr) {
        // Record the moves in the truth table and queue the translation page
        // for one recovery rewrite after reconcile converges.
        for (const MovedPage& m : moved) {
          (*mount_truth_)[m.lba] = m.dst;
        }
        mount_enqueue(tvpn);
        landed = true;
      } else if (resident) {
        slot_dirty_[slot] = 1;
        if (sink_ != nullptr) sink_->on_mark_dirty(tvpn);
        landed = true;
      } else {
        landed = try_program_tpage(tvpn, entries, TpageWrite::gc_update).valid();
        if (landed) ++stats_.gc_rmw_writes;
      }
    }
    if (landed) {
      for (const MovedPage& m : moved) {
        const Status inv = chip().invalidate_page(m.src);
        SWL_ASSERT(inv == Status::ok, "relocated source page was not invalidatable");
        count_live_copy();
      }
      sync_victim(victim);
    } else {
      // Roll the copies back: the sources are still valid and, with the entry
      // patches undone, still mapped — every abort leaves the device
      // consistent.
      for (const MovedPage& m : moved) {
        const Status inv = chip().invalidate_page(m.dst);
        SWL_ASSERT(inv == Status::ok, "GC copy was not invalidatable");
        sync_victim(m.dst.block);
        if (entries != nullptr) entries[m.lba % config_.lbas_per_tpage] = pack_entry(m.src);
      }
      return false;
    }
    i = end;
  }
  const Status st = chip().erase_block(victim);
  if (st == Status::ok) {
    pool_.add(victim, chip().erase_count(victim));
  }
  data_victims_.remove(victim);
  class_of_[victim] = BlockClass::free;
  return true;
}

bool Dftl::clean_translation_block(BlockIndex victim) {
  const auto& geo = chip().geometry();
  SWL_ASSERT(victim != host_.block && victim != gc_.block,
             "translation victim is a data frontier");
  // Destination accounting: every live translation page moves to the
  // translation frontier.
  const std::uint64_t n = chip().valid_page_count(victim);
  const std::uint64_t trans_space = trans_.room(geo.pages_per_block, victim);
  const std::uint64_t blocks_needed =
      n > trans_space ? (n - trans_space + geo.pages_per_block - 1) / geo.pages_per_block : 0;
  if (blocks_needed > pool_.size()) return false;
  trans_.close_if(victim);
  for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
    const Ppa src{victim, p};
    if (chip().page_state(src) != PageState::valid) continue;
    const Lba tvpn = chip().spare(src).lba;
    SWL_ASSERT(tvpn < tpage_count_, "valid translation page with an out-of-range tvpn");
    SWL_ASSERT(gtd_[tvpn] == src, "valid translation page not referenced by the GTD");
    const std::uint32_t slot = slot_of_[tvpn];
    if (slot != kNoSlot && slot_dirty_[slot] != 0) {
      // The cached copy is newer: relocation and flush in one program.
      if (!write_back_slot(slot, TpageWrite::writeback)) return false;
      ++stats_.writebacks;
    } else {
      // Verbatim copy of the current version (a resident clean copy matches
      // flash by invariant, so reading flash is equivalent and keeps GC an
      // on-media operation).
      decode_tpage(src, rmw_entries_.data());
      if (!try_program_tpage(tvpn, rmw_entries_.data(), TpageWrite::gc_relocate).valid()) {
        return false;
      }
    }
    count_live_copy();
  }
  const Status st = chip().erase_block(victim);
  if (st == Status::ok) {
    pool_.add(victim, chip().erase_count(victim));
  }
  trans_victims_.remove(victim);
  class_of_[victim] = BlockClass::free;
  return true;
}

void Dftl::do_collect_blocks(BlockIndex first, BlockIndex count) {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(first < geo.block_count && count > 0 && first + count <= geo.block_count,
              "block set out of range");
  for (BlockIndex b = first; b < first + count; ++b) {
    if (chip().is_retired(b)) continue;
    if (pool_.empty() && !pool_.contains(b)) continue;  // no destination for copies
    if (pool_.contains(b)) {
      pool_.remove(b);
      if (chip().erase_block(b) == Status::ok) pool_.add(b, chip().erase_count(b));
      continue;
    }
    clean_block(b);
  }
}

// -- mount --------------------------------------------------------------------

void Dftl::mount_enqueue(Lba tvpn) {
  if ((*mount_pending_flag_)[tvpn] != 0) return;
  (*mount_pending_flag_)[tvpn] = 1;
  mount_pending_->push_back(tvpn);
}

void Dftl::rebuild_from_flash() {
  const auto& geo = chip().geometry();
  // Pass 1: the newest version of every LBA / every translation page wins;
  // stale versions and garbage (ECC-failed, torn) pages are invalidated.
  // Valid pages classify their block.
  std::vector<Ppa> truth(config_.lba_count, kInvalidPpa);
  std::vector<std::uint64_t> win_seq(config_.lba_count, 0);
  std::vector<std::uint64_t> t_win_seq(tpage_count_, 0);
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
      const Ppa addr{b, p};
      if (chip().page_state(addr) != PageState::valid) continue;
      const nand::SpareArea& spare = chip().spare(addr);
      write_sequence_ = std::max(write_sequence_, spare.sequence);
      if (spare.role == nand::PageRole::translation) {
        if (spare.lba == kInvalidLba || spare.lba >= tpage_count_) {
          // Benign discard: mount-scan invalidation of a page a crash may
          // already have consumed.
          discard_status(chip().invalidate_page(addr));
          continue;
        }
        class_of_[b] = BlockClass::translation;
        keep_newest(gtd_[spare.lba], t_win_seq[spare.lba], addr, spare.sequence);
        continue;
      }
      if (spare.lba == kInvalidLba || spare.lba >= config_.lba_count) {
        discard_status(chip().invalidate_page(addr));  // benign: unreadable / out of range
        continue;
      }
      class_of_[b] = BlockClass::data;
      keep_newest(truth[spare.lba], win_seq[spare.lba], addr, spare.sequence);
    }
  }
  // Pass 2: rebuild the pool from fully erased blocks and re-adopt the
  // partially written block with the largest free tail of each class as that
  // class's frontier. Blocks holding only invalid pages never classified in
  // pass 1; treat them as data blocks so GC sees them.
  tl::FrontierCandidates partial_data;
  tl::FrontierCandidates partial_trans;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (chip().is_retired(b)) continue;
    if (chip().free_page_count(b) == geo.pages_per_block) {
      class_of_[b] = BlockClass::free;
      pool_.add(b, chip().erase_count(b));
      continue;
    }
    if (class_of_[b] == BlockClass::free) class_of_[b] = BlockClass::data;
    (class_of_[b] == BlockClass::translation ? partial_trans : partial_data).offer(chip(), b);
  }
  partial_data.adopt(geo.pages_per_block, {&host_, &gc_});
  partial_trans.adopt(geo.pages_per_block, {&trans_});
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (!chip().is_retired(b)) sync_victim(b);
  }
  // Pass 3: reconcile every translation page with the scanned truth. The
  // data-page scan is authoritative (out-of-place data writes with fresh
  // sequence numbers survive any crash); a translation page that disagrees —
  // because a crash cut between a data program and its deferred write-back —
  // is rewritten now, before the mount serves I/O. Garbage collection during
  // these rewrites relocates data pages, which re-queues their translation
  // pages (see clean_data_block's mount path), so this runs to a fixpoint.
  std::vector<std::uint8_t> pending_flag(tpage_count_, 0);
  std::vector<Lba> pending;
  mount_truth_ = &truth;
  mount_pending_flag_ = &pending_flag;
  mount_pending_ = &pending;
  // Page stride with a zero tail, like a CMT slot: recovery programs from it.
  std::vector<std::uint32_t> expected(tpage_stride_, 0);
  const auto build_expected = [&](Lba tvpn) {
    bool any = false;
    for (std::uint32_t k = 0; k < config_.lbas_per_tpage; ++k) {
      const Lba lba = tvpn * config_.lbas_per_tpage + k;
      const Ppa p = (lba < config_.lba_count) ? truth[lba] : kInvalidPpa;
      expected[k] = pack_entry(p);
      any = any || p.valid();
    }
    return any;
  };
  const auto flash_matches_expected = [&](Lba tvpn) {
    return std::memcmp(tpage_image(gtd_[tvpn]).data(), expected.data(),
                       4ULL * config_.lbas_per_tpage) == 0;
  };
  for (Lba tvpn = 0; tvpn < tpage_count_; ++tvpn) {
    const bool any_mapped = build_expected(tvpn);
    if (!gtd_[tvpn].valid()) {
      if (any_mapped) mount_enqueue(tvpn);
      continue;
    }
    if (!flash_matches_expected(tvpn)) mount_enqueue(tvpn);
  }
  std::size_t cursor = 0;
  const std::uint64_t bound = 64ULL * (tpage_count_ + geo.block_count) + 1024;
  std::uint64_t rounds = 0;
  while (cursor < pending.size()) {
    SWL_ASSERT(++rounds < bound, "mount reconcile did not converge");
    const Lba tvpn = pending[cursor++];
    pending_flag[tvpn] = 0;
    const bool any_mapped = build_expected(tvpn);
    if (!any_mapped) {
      // Nothing maps through this page anymore: drop the stale version
      // instead of writing an empty one.
      if (gtd_[tvpn].valid()) {
        const Status inv = chip().invalidate_page(gtd_[tvpn]);
        SWL_ASSERT(inv == Status::ok, "stale translation page was not invalidatable");
        sync_victim(gtd_[tvpn].block);
        gtd_[tvpn] = kInvalidPpa;
      }
      continue;
    }
    if (gtd_[tvpn].valid() && flash_matches_expected(tvpn)) continue;
    maybe_gc();  // GC may relocate data pages and re-queue translation pages
    const bool any_mapped_now = build_expected(tvpn);
    if (!any_mapped_now) continue;  // re-queued state handled on its next visit
    const Ppa dst = try_program_tpage(tvpn, expected.data(), TpageWrite::recovery);
    SWL_ASSERT(dst.valid(), "mount reconcile ran out of space");
    ++stats_.recovery_writes;
  }
  mount_truth_ = nullptr;
  mount_pending_flag_ = nullptr;
  mount_pending_ = nullptr;
}

// -- introspection ------------------------------------------------------------

const std::uint8_t* Dftl::effective_image(Lba tvpn) const {
  const std::uint32_t slot = slot_of_[tvpn];
  if (slot != kNoSlot) return reinterpret_cast<const std::uint8_t*>(slot_entries(slot));
  return gtd_[tvpn].valid() ? tpage_image(gtd_[tvpn]).data() : nullptr;
}

Ppa Dftl::translate(Lba lba) const {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  return unpack_entry(image_entry(effective_image(tvpn_of(lba)), lba % config_.lbas_per_tpage));
}

void Dftl::translate_tpage(Lba tvpn, std::span<Ppa> out) const {
  SWL_REQUIRE(tvpn < tpage_count_, "tvpn out of range");
  SWL_REQUIRE(out.size() >= config_.lbas_per_tpage, "output shorter than a translation page");
  const std::uint8_t* image = effective_image(tvpn);
  for (std::uint32_t k = 0; k < config_.lbas_per_tpage; ++k) {
    out[k] = unpack_entry(image_entry(image, k));
  }
}

bool Dftl::is_resident(Lba tvpn) const {
  SWL_REQUIRE(tvpn < tpage_count_, "tvpn out of range");
  return slot_of_[tvpn] != kNoSlot;
}

bool Dftl::is_dirty(Lba tvpn) const {
  SWL_REQUIRE(tvpn < tpage_count_, "tvpn out of range");
  const std::uint32_t slot = slot_of_[tvpn];
  SWL_REQUIRE(slot != kNoSlot, "tvpn not resident");
  return slot_dirty_[slot] != 0;
}

Ppa Dftl::tpage_location(Lba tvpn) const {
  SWL_REQUIRE(tvpn < tpage_count_, "tvpn out of range");
  return gtd_[tvpn];
}

Ppa Dftl::cmt_entry(Lba lba) const {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  const Lba tvpn = lba / config_.lbas_per_tpage;
  const std::uint32_t slot = slot_of_[tvpn];
  SWL_REQUIRE(slot != kNoSlot, "translation page not resident");
  return unpack_entry(slot_entries(slot)[lba % config_.lbas_per_tpage]);
}

BlockClass Dftl::block_class(BlockIndex b) const {
  SWL_REQUIRE(b < chip().geometry().block_count, "block out of range");
  return class_of_[b];
}

bool Dftl::debug_drop_first_dirty() {
  for (std::uint32_t slot = lru_head_; slot != kNoSlot; slot = lru_next_[slot]) {
    if (slot_dirty_[slot] != 0) {
      slot_dirty_[slot] = 0;
      return true;
    }
  }
  return false;
}

void Dftl::check_invariants() const {
  const auto& geo = chip().geometry();
  // CMT structure: the LRU list covers exactly the resident slots, links are
  // consistent, and slot_of_ round-trips.
  std::uint32_t walked = 0;
  std::uint32_t prev = kNoSlot;
  for (std::uint32_t slot = lru_head_; slot != kNoSlot; slot = lru_next_[slot]) {
    SWL_ASSERT(walked++ < config_.cmt_capacity, "LRU list has a cycle");
    SWL_ASSERT(lru_prev_[slot] == prev, "LRU back-link broken");
    const Lba tvpn = tvpn_of_slot_[slot];
    SWL_ASSERT(tvpn < tpage_count_ && slot_of_[tvpn] == slot, "CMT slot table broken");
    prev = slot;
  }
  SWL_ASSERT(lru_tail_ == prev, "LRU tail mismatch");
  SWL_ASSERT(walked == resident_count_, "resident count mismatch");
  SWL_ASSERT(walked + free_slots_.size() == config_.cmt_capacity, "CMT slots leaked");
  // Translation pages are programmed straight from these buffers: the words
  // past lbas_per_tpage are the page's zero padding.
  const auto zero_tail = [&](const std::uint32_t* words) {
    return std::all_of(words + config_.lbas_per_tpage, words + tpage_stride_,
                       [](std::uint32_t w) { return w == 0; });
  };
  for (std::uint32_t slot = 0; slot < config_.cmt_capacity; ++slot) {
    SWL_ASSERT(zero_tail(slot_entries(slot)), "CMT slot padding is not zero");
  }
  SWL_ASSERT(zero_tail(rmw_entries_.data()), "read-modify-write scratch padding is not zero");

  // Effective mapping (CMT where resident, flash elsewhere): every mapped
  // entry points at a valid data-role page whose spare LBA matches; the
  // total equals the chip's valid data pages, which also rules out
  // duplicates. Resident clean pages must match their flash version.
  std::uint64_t mapped = 0;
  std::uint64_t gtd_valid = 0;
  for (Lba tvpn = 0; tvpn < tpage_count_; ++tvpn) {
    const std::uint32_t slot = slot_of_[tvpn];
    const Ppa tpage = gtd_[tvpn];
    const std::uint8_t* flash = nullptr;
    if (tpage.valid()) {
      ++gtd_valid;
      SWL_ASSERT(chip().page_state(tpage) == PageState::valid,
                 "GTD points at a non-valid page");
      SWL_ASSERT(chip().spare(tpage).role == nand::PageRole::translation,
                 "GTD points at a non-translation page");
      SWL_ASSERT(chip().spare(tpage).lba == tvpn, "GTD and spare area disagree");
      flash = tpage_image(tpage).data();
    }
    const std::uint8_t* effective = flash;
    if (slot != kNoSlot) {
      effective = reinterpret_cast<const std::uint8_t*>(slot_entries(slot));
      // A clean resident page is a cache of its flash version.
      for (std::uint32_t k = 0; k < config_.lbas_per_tpage && slot_dirty_[slot] == 0; ++k) {
        SWL_ASSERT(image_entry(effective, k) == image_entry(flash, k),
                   "clean CMT page diverges from flash");
      }
    }
    if (effective == nullptr) continue;
    for (std::uint32_t k = 0; k < config_.lbas_per_tpage; ++k) {
      const Lba lba = tvpn * config_.lbas_per_tpage + k;
      const Ppa p = unpack_entry(image_entry(effective, k));
      if (lba >= config_.lba_count) {
        SWL_ASSERT(!p.valid(), "map entry beyond lba_count");
        continue;
      }
      if (!p.valid()) continue;
      ++mapped;
      SWL_ASSERT(chip().page_state(p) == PageState::valid, "map points at a non-valid page");
      SWL_ASSERT(chip().spare(p).role != nand::PageRole::translation,
                 "map points at a translation page");
      SWL_ASSERT(chip().spare(p).lba == lba, "map and spare area disagree");
    }
  }
  std::uint64_t valid_data_pages = 0;
  std::uint64_t valid_trans_pages = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (pool_.contains(b)) {
      SWL_ASSERT(chip().free_page_count(b) == geo.pages_per_block, "pooled block not empty");
      SWL_ASSERT(class_of_[b] == BlockClass::free, "pooled block still classified");
    }
    for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
      if (chip().page_state({b, p}) != PageState::valid) continue;
      if (chip().spare({b, p}).role == nand::PageRole::translation) {
        SWL_ASSERT(class_of_[b] == BlockClass::translation,
                   "valid translation page in a non-translation block");
        ++valid_trans_pages;
      } else {
        SWL_ASSERT(class_of_[b] == BlockClass::data, "valid data page in a non-data block");
        ++valid_data_pages;
      }
    }
  }
  SWL_ASSERT(mapped == valid_data_pages, "mapped LBA count != valid data page count");
  SWL_ASSERT(gtd_valid == valid_trans_pages, "GTD entry count != valid translation page count");
}

}  // namespace swl::dftl
