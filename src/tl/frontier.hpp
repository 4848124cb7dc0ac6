// Write frontiers: the open blocks a page-mapping layer programs
// sequentially (host writes, GC copies, hot data, translation pages), the
// copy-back relocation of a live page onto one, and their re-adoption by a
// mount scan.
#ifndef SWL_TL_FRONTIER_HPP
#define SWL_TL_FRONTIER_HPP

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/types.hpp"
#include "nand/nand_chip.hpp"
#include "tl/free_block_pool.hpp"

namespace swl::tl {

/// One write frontier: the open block (kInvalidBlock when closed) and its
/// next free page.
struct Frontier {
  BlockIndex block = kInvalidBlock;
  PageIndex next = 0;

  /// True when the next program must open a new block.
  [[nodiscard]] bool full(PageIndex pages_per_block) const noexcept {
    return block == kInvalidBlock || next >= pages_per_block;
  }

  /// Closes a full frontier, so its block becomes a plain data block that
  /// victim selection sees (hot overwrites concentrate invalid pages there).
  void seal_if_full(PageIndex pages_per_block) noexcept {
    if (next >= pages_per_block) block = kInvalidBlock;
  }

  /// Closes the frontier when its block is being collected.
  void close_if(BlockIndex victim) noexcept {
    if (block == victim) block = kInvalidBlock;
  }

  /// Free pages left for copies out of `victim`: none when the frontier is
  /// closed or is the victim itself.
  [[nodiscard]] PageIndex room(PageIndex pages_per_block, BlockIndex victim) const noexcept {
    return (block == kInvalidBlock || block == victim) ? 0 : pages_per_block - next;
  }

  /// Programs the next page through `program(Ppa) -> Status`, opening a
  /// block from `pool` when full — but only while more than `keep_free`
  /// blocks remain. A failed program consumes its page; the next page is
  /// tried. Returns the programmed page, or kInvalidPpa when no block could
  /// be opened.
  template <typename Program>
  Ppa program_next(FreeBlockPool& pool, const nand::NandChip& chip, std::size_t keep_free,
                   Program&& program) {
    const PageIndex pages = chip.geometry().pages_per_block;
    while (true) {
      if (full(pages)) {
        if (pool.size() <= keep_free) return kInvalidPpa;
        block = pool.take();
        next = 0;
        SWL_ASSERT(chip.free_page_count(block) == pages, "pooled block was not empty");
      }
      const Ppa dst{block, next++};
      const Status st = program(dst);
      if (st == Status::ok) return dst;
      SWL_ASSERT(st == Status::program_failed, "frontier page was not programmable");
    }
  }

  /// Relocates the programmed page `src`, which must carry spare LBA `lba`,
  /// to the page program_next picks, through one-op NandChip::copy_pages
  /// calls: `sequence()` numbers each attempt and `copied(Ppa)` runs after
  /// each, failed ones included. The source is read once — a retry after a
  /// failed program reprograms from the page register
  /// (CopySource::buffered) — and that read is charged even when no block
  /// can be opened, because a relocation buffers its source before it seeks
  /// a destination.
  template <typename Sequence, typename Copied>
  Ppa copy_next(FreeBlockPool& pool, nand::NandChip& chip, std::size_t keep_free, Ppa src,
                Lba lba, nand::PageRole role, Sequence&& sequence, Copied&& copied) {
    nand::CopySource source = nand::CopySource::read;
    const Ppa dst = program_next(pool, chip, keep_free, [&](Ppa to) {
      const nand::CopyOp op{src, to, lba, sequence(), role};
      const Status st = chip.copy_pages({&op, 1}, source).status;
      source = nand::CopySource::buffered;
      copied(to);
      return st;
    });
    if (!dst.valid() && source == nand::CopySource::read) {
      // Benign discard: the read only charges the buffered source; the
      // caller aborts its relocation.
      discard_status(chip.read_page(src).status);
    }
    return dst;
  }
};

/// Mount-time frontier re-adoption. A sequential frontier leaves its free
/// pages as a block tail, so the partially written blocks with the largest
/// free tails are re-opened as frontiers; other partial blocks stay data
/// blocks whose tails GC reclaims.
class FrontierCandidates {
 public:
  /// Considers a partially written block: kept when its free pages form a
  /// non-empty tail.
  void offer(const nand::NandChip& chip, BlockIndex b);

  /// Re-opens the candidates as `frontiers`, largest free tail first (ties
  /// to the higher block index); null entries and frontiers beyond the
  /// candidate count stay closed.
  void adopt(PageIndex pages_per_block, std::initializer_list<Frontier*> frontiers);

 private:
  std::vector<std::pair<PageIndex, BlockIndex>> partial_;  // (free pages, block)
};

}  // namespace swl::tl

#endif  // SWL_TL_FRONTIER_HPP
