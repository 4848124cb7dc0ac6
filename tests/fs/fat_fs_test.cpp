#include "fs/fat_fs.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "fs/fs_snapshot_store.hpp"
#include "ftl/ftl.hpp"
#include "nftl/nftl.hpp"
#include "swl/leveler.hpp"

namespace swl::fs {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

struct Fixture {
  explicit Fixture(BlockIndex blocks = 32, bool do_format = true) {
    nand::NandConfig nc;
    nc.geometry =
        FlashGeometry{.block_count = blocks, .pages_per_block = 16, .page_size_bytes = 2048};
    nc.timing = default_timing(CellType::mlc_x2);
    nc.store_payload_bytes = true;
    chip = std::make_unique<nand::NandChip>(nc);
    ftl = std::make_unique<ftl::Ftl>(*chip, ftl::FtlConfig{});
    dev = std::make_unique<bdev::BlockDevice>(*ftl);
    if (do_format) {
      EXPECT_EQ(FatFs::format(*dev, FatConfig{}), Status::ok);
      Status st = Status::ok;
      fs = FatFs::mount(*dev, &st);
      EXPECT_EQ(st, Status::ok);
    }
  }
  std::unique_ptr<nand::NandChip> chip;
  std::unique_ptr<ftl::Ftl> ftl;
  std::unique_ptr<bdev::BlockDevice> dev;
  std::unique_ptr<FatFs> fs;
};

TEST(FatFs, FormatAndMount) {
  Fixture f;
  ASSERT_NE(f.fs, nullptr);
  EXPECT_GT(f.fs->cluster_count(), 0u);
  EXPECT_EQ(f.fs->free_clusters(), f.fs->cluster_count());
  EXPECT_TRUE(f.fs->list().empty());
}

TEST(FatFs, MountOfUnformattedDeviceFails) {
  Fixture f(32, /*do_format=*/false);
  Status st = Status::ok;
  EXPECT_EQ(FatFs::mount(*f.dev, &st), nullptr);
  EXPECT_EQ(st, Status::corrupt_snapshot);
}

TEST(FatFs, CreateListRemove) {
  Fixture f;
  ASSERT_EQ(f.fs->create("readme.txt"), Status::ok);
  ASSERT_EQ(f.fs->create("data.bin"), Status::ok);
  EXPECT_TRUE(f.fs->exists("readme.txt"));
  EXPECT_EQ(f.fs->list().size(), 2u);
  ASSERT_EQ(f.fs->remove("readme.txt"), Status::ok);
  EXPECT_FALSE(f.fs->exists("readme.txt"));
  EXPECT_EQ(f.fs->list().size(), 1u);
}

TEST(FatFs, WriteReadRoundTrip) {
  Fixture f;
  const auto content = bytes_of("hello flash file system");
  ASSERT_EQ(f.fs->write_file("hello.txt", content), Status::ok);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(f.fs->read_file("hello.txt", &out), Status::ok);
  EXPECT_EQ(out, content);
}

TEST(FatFs, EmptyFileRoundTrip) {
  Fixture f;
  ASSERT_EQ(f.fs->write_file("empty", {}), Status::ok);
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_EQ(f.fs->read_file("empty", &out), Status::ok);
  EXPECT_TRUE(out.empty());
}

TEST(FatFs, MultiClusterFileRoundTrips) {
  Fixture f;
  const auto content = pattern(f.fs->cluster_bytes() * 3 + 123, 7);
  ASSERT_EQ(f.fs->write_file("big.bin", content), Status::ok);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(f.fs->read_file("big.bin", &out), Status::ok);
  EXPECT_EQ(out, content);
  EXPECT_EQ(f.fs->free_clusters(), f.fs->cluster_count() - 4);
}

TEST(FatFs, OverwriteReplacesContentAndReleasesClusters) {
  Fixture f;
  ASSERT_EQ(f.fs->write_file("f", pattern(f.fs->cluster_bytes() * 4, 1)), Status::ok);
  const std::uint32_t free_after_big = f.fs->free_clusters();
  const auto small = bytes_of("short");
  ASSERT_EQ(f.fs->write_file("f", small), Status::ok);
  EXPECT_GT(f.fs->free_clusters(), free_after_big);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(f.fs->read_file("f", &out), Status::ok);
  EXPECT_EQ(out, small);
}

TEST(FatFs, AppendGrowsAcrossClusterBoundaries) {
  Fixture f;
  ASSERT_EQ(f.fs->create("log"), Status::ok);
  std::vector<std::uint8_t> expected;
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const auto chunk = pattern(1 + rng.below(700), 100 + static_cast<std::uint64_t>(i));
    ASSERT_EQ(f.fs->append("log", chunk), Status::ok);
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  std::vector<std::uint8_t> out;
  ASSERT_EQ(f.fs->read_file("log", &out), Status::ok);
  EXPECT_EQ(out, expected);
}

TEST(FatFs, AppendToMissingFileFails) {
  Fixture f;
  EXPECT_EQ(f.fs->append("nope", bytes_of("x")), Status::file_not_found);
}

TEST(FatFs, DuplicateCreateFails) {
  Fixture f;
  ASSERT_EQ(f.fs->create("a"), Status::ok);
  EXPECT_EQ(f.fs->create("a"), Status::file_exists);
}

TEST(FatFs, InvalidNamesRejected) {
  Fixture f;
  EXPECT_EQ(f.fs->create(""), Status::invalid_name);
  EXPECT_EQ(f.fs->create(std::string(FatFs::kMaxName + 1, 'x')), Status::invalid_name);
  EXPECT_EQ(f.fs->create(std::string(FatFs::kMaxName, 'x')), Status::ok);
}

TEST(FatFs, FillsUpGracefully) {
  Fixture f;
  const auto cluster = pattern(f.fs->cluster_bytes(), 3);
  int created = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::string name = std::string("f").append(std::to_string(i));
    const Status st = f.fs->write_file(name, cluster);
    if (st != Status::ok) {
      EXPECT_EQ(st, Status::fs_full);
      break;
    }
    ++created;
  }
  EXPECT_GT(created, 10);
  // Free one file: a new one fits again.
  ASSERT_EQ(f.fs->remove("f0"), Status::ok);
  EXPECT_EQ(f.fs->write_file("again", cluster), Status::ok);
}

TEST(FatFs, RemoveFreesAllClusters) {
  Fixture f;
  const std::uint32_t before = f.fs->free_clusters();
  ASSERT_EQ(f.fs->write_file("f", pattern(f.fs->cluster_bytes() * 5, 2)), Status::ok);
  ASSERT_EQ(f.fs->remove("f"), Status::ok);
  EXPECT_EQ(f.fs->free_clusters(), before);
  EXPECT_EQ(f.fs->remove("f"), Status::file_not_found);
}

TEST(FatFs, PersistsAcrossRemount) {
  Fixture f;
  const auto a = pattern(5'000, 11);
  const auto b = bytes_of("second file");
  ASSERT_EQ(f.fs->write_file("a.bin", a), Status::ok);
  ASSERT_EQ(f.fs->write_file("b.txt", b), Status::ok);
  f.fs.reset();  // unmount
  Status st = Status::ok;
  auto fs2 = FatFs::mount(*f.dev, &st);
  ASSERT_EQ(st, Status::ok);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(fs2->read_file("a.bin", &out), Status::ok);
  EXPECT_EQ(out, a);
  ASSERT_EQ(fs2->read_file("b.txt", &out), Status::ok);
  EXPECT_EQ(out, b);
  EXPECT_EQ(fs2->list().size(), 2u);
}

TEST(FatFs, SurvivesPowerLossThroughWholeStack) {
  // File system -> block device -> FTL -> chip: crash, remount every layer.
  Fixture f;
  std::map<std::string, std::vector<std::uint8_t>> shadow;
  Rng rng(21);
  for (int i = 0; i < 30; ++i) {
    const std::string name = "file" + std::to_string(i % 8);
    const auto content = pattern(rng.below(6'000), 1000 + static_cast<std::uint64_t>(i));
    ASSERT_EQ(f.fs->write_file(name, content), Status::ok);
    shadow[name] = content;
  }
  f.fs.reset();
  f.dev.reset();
  f.ftl.reset();
  f.chip->forget_logical_state();  // power loss
  auto ftl = ftl::Ftl::mount(*f.chip, ftl::FtlConfig{});
  bdev::BlockDevice dev(*ftl);
  Status st = Status::ok;
  auto fs = FatFs::mount(dev, &st);
  ASSERT_EQ(st, Status::ok);
  for (const auto& [name, want] : shadow) {
    std::vector<std::uint8_t> out;
    ASSERT_EQ(fs->read_file(name, &out), Status::ok) << name;
    ASSERT_EQ(out, want) << name;
  }
}

TEST(FatFs, MetadataRegionIsTheHotSpot) {
  // Many small-file rewrites: FAT + directory sectors take far more writes
  // per sector than the data region — the realistic hot/cold structure the
  // wear-leveling story is about.
  Fixture f;
  Rng rng(31);
  for (int i = 0; i < 400; ++i) {
    const std::string name = std::string("f").append(std::to_string(rng.below(6)));
    ASSERT_EQ(f.fs->write_file(name, pattern(600, static_cast<std::uint64_t>(i))), Status::ok);
  }
  const auto& c = f.fs->counters();
  EXPECT_GT(c.fat_writes + c.dir_writes, c.data_writes);
}

TEST(FsSnapshotStore, BetSnapshotsLiveInTheFileSystem) {
  // Section 3.2: the BET is saved in the flash-memory storage system itself.
  Fixture f;
  wear::LevelerConfig lc;
  lc.threshold = 100;
  wear::SwLeveler leveler(32, lc);
  for (int i = 0; i < 12; ++i) leveler.on_block_erased(static_cast<BlockIndex>(i % 5));

  FileSystemSnapshotStore store(*f.fs);
  wear::LevelerPersistence persistence(store);
  ASSERT_EQ(persistence.save(leveler), Status::ok);
  EXPECT_TRUE(f.fs->exists("bet.0"));

  // Unmount + remount the FS, then restore the leveler from the file.
  f.fs.reset();
  Status st = Status::ok;
  auto fs2 = FatFs::mount(*f.dev, &st);
  ASSERT_EQ(st, Status::ok);
  FileSystemSnapshotStore store2(*fs2);
  wear::LevelerPersistence persistence2(store2);
  wear::SwLeveler restored(32, lc);
  ASSERT_EQ(persistence2.load(restored), Status::ok);
  EXPECT_EQ(restored.ecnt(), 12u);
  EXPECT_EQ(restored.fcnt(), 5u);
}

TEST(FsSnapshotStore, DualSlotsAlternate) {
  Fixture f;
  wear::SwLeveler leveler(32, wear::LevelerConfig{});
  FileSystemSnapshotStore store(*f.fs);
  wear::LevelerPersistence persistence(store);
  leveler.on_block_erased(0);
  ASSERT_EQ(persistence.save(leveler), Status::ok);
  leveler.on_block_erased(1);
  ASSERT_EQ(persistence.save(leveler), Status::ok);
  EXPECT_TRUE(f.fs->exists("bet.0"));
  EXPECT_TRUE(f.fs->exists("bet.1"));
  wear::SwLeveler restored(32, wear::LevelerConfig{});
  ASSERT_EQ(persistence.load(restored), Status::ok);
  EXPECT_EQ(restored.ecnt(), 2u);  // the newest slot wins
}

TEST(FatFs, WorksOverNftlWithSwl) {
  nand::NandConfig nc;
  nc.geometry = FlashGeometry{.block_count = 32, .pages_per_block = 16, .page_size_bytes = 2048};
  nc.timing = default_timing(CellType::mlc_x2);
  nc.store_payload_bytes = true;
  nand::NandChip chip(nc);
  nftl::Nftl nftl(chip, nftl::NftlConfig{});
  wear::LevelerConfig lc;
  lc.threshold = 8;
  nftl.attach_leveler(std::make_unique<wear::SwLeveler>(32, lc));
  bdev::BlockDevice dev(nftl);
  ASSERT_EQ(FatFs::format(dev, FatConfig{}), Status::ok);
  Status st = Status::ok;
  auto fs = FatFs::mount(dev, &st);
  ASSERT_EQ(st, Status::ok);

  std::map<std::string, std::vector<std::uint8_t>> shadow;
  Rng rng(41);
  for (int i = 0; i < 300; ++i) {
    const std::string name = std::string("n").append(std::to_string(rng.below(10)));
    const auto content = pattern(rng.below(4'000), 7'000 + static_cast<std::uint64_t>(i));
    ASSERT_EQ(fs->write_file(name, content), Status::ok);
    shadow[name] = content;
  }
  for (const auto& [name, want] : shadow) {
    std::vector<std::uint8_t> out;
    ASSERT_EQ(fs->read_file(name, &out), Status::ok) << name;
    ASSERT_EQ(out, want) << name;
  }
  nftl.check_invariants();
  EXPECT_GT(chip.counters().erases, 0u);
}

}  // namespace
}  // namespace swl::fs
