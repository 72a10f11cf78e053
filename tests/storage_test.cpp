#include <stdexcept>

#include <gtest/gtest.h>

#include "src/storage/hdd.hpp"
#include "src/storage/nand.hpp"
#include "src/storage/ram.hpp"

namespace ssdse {
namespace {

// --- HddModel --------------------------------------------------------------

TEST(HddTest, OutOfRangeThrows) {
  HddConfig cfg;
  cfg.capacity = 1 * MiB;
  HddModel hdd(cfg);
  EXPECT_THROW((void)hdd.read(10'000, 8), std::out_of_range);
  EXPECT_THROW((void)hdd.write(2047, 2), std::out_of_range);
  EXPECT_TRUE(hdd.read(0, 8).ok());
}

TEST(HddTest, SequentialCheaperThanRandom) {
  HddModel hdd;
  // Prime the head.
  EXPECT_TRUE(hdd.read(0, 64).ok());
  const Micros seq = hdd.read(64, 64).latency;  // continues at the head
  HddModel hdd2;
  EXPECT_TRUE(hdd2.read(0, 64).ok());
  const Micros rnd = hdd2.read(200'000'000, 64).latency;  // far seek
  EXPECT_LT(seq * 5, rnd);
}

TEST(HddTest, SequentialRunHasNoSeek) {
  HddConfig cfg;
  HddModel hdd(cfg);
  EXPECT_TRUE(hdd.read(0, 8).ok());
  const Micros t = hdd.read(8, 8).latency;
  // Controller overhead + transfer only: well under 1 ms.
  EXPECT_LT(t.value(), 1000.0);
}

TEST(HddTest, LongerSeeksCostMore) {
  HddModel hdd;
  const Micros near = hdd.expected_latency(0, 1'000'000, 8);
  const Micros far = hdd.expected_latency(0, 300'000'000, 8);
  EXPECT_LT(near, far);
}

TEST(HddTest, TransferScalesWithSize) {
  HddModel hdd;
  const Micros small = hdd.expected_latency(0, 0, 8);
  const Micros large = hdd.expected_latency(0, 0, 8000);
  EXPECT_GT(large, small + micros(1000));  // ~4 ms more at 100 MiB/s
}

TEST(HddTest, StatsAccumulate) {
  HddModel hdd;
  EXPECT_TRUE(hdd.read(0, 8).ok());
  EXPECT_TRUE(hdd.write(100'000, 16).ok());
  EXPECT_EQ(hdd.stats().read_ops, 1u);
  EXPECT_EQ(hdd.stats().write_ops, 1u);
  EXPECT_EQ(hdd.stats().sectors_read, 8u);
  EXPECT_EQ(hdd.stats().sectors_written, 16u);
  EXPECT_GT(hdd.stats().busy_total().value(), 0.0);
  EXPECT_GT(hdd.stats().mean_access().value(), 0.0);
}

TEST(HddTest, CollectorSeesOps) {
  HddModel hdd;
  hdd.collector().set_enabled(true);
  EXPECT_TRUE(hdd.read(42, 8).ok());
  ASSERT_EQ(hdd.collector().records().size(), 1u);
  EXPECT_EQ(hdd.collector().records()[0].lba, 42u);
  EXPECT_EQ(hdd.collector().records()[0].op, IoOp::kRead);
}

// --- NandArray ---------------------------------------------------------------

NandConfig tiny_nand() {
  NandConfig cfg;
  cfg.num_blocks = 8;
  cfg.pages_per_block = 4;
  return cfg;
}

TEST(NandTest, PagesPerBlockMustBeAPowerOfTwo) {
  for (const std::uint32_t ppb : {0u, 3u, 48u}) {
    NandConfig cfg = tiny_nand();
    cfg.pages_per_block = ppb;
    EXPECT_THROW(NandArray{cfg}, std::invalid_argument) << ppb;
  }
  for (const std::uint32_t ppb : {1u, 2u, 64u}) {
    NandConfig cfg = tiny_nand();
    cfg.pages_per_block = ppb;
    const NandArray nand(cfg);
    const Ppn last = cfg.total_pages() - 1;
    EXPECT_EQ(nand.block_of(last), cfg.num_blocks - 1) << ppb;
    EXPECT_EQ(nand.page_in_block(last), ppb - 1) << ppb;
  }
}

TEST(NandTest, ProgramReadRoundTrip) {
  NandArray nand(tiny_nand());
  (void)nand.program_page(0, 0xDEADBEEF);
  std::uint64_t tag = 0;
  (void)nand.read_page(0, &tag);
  EXPECT_EQ(tag, 0xDEADBEEFu);
}

TEST(NandTest, ErasedPageReadsFreeTag) {
  NandArray nand(tiny_nand());
  std::uint64_t tag = 0;
  (void)nand.read_page(5, &tag);
  EXPECT_EQ(tag, kNandFreeTag);
  EXPECT_TRUE(nand.is_erased(5));
}

TEST(NandTest, EraseBeforeWriteEnforced) {
  NandArray nand(tiny_nand());
  (void)nand.program_page(0, 1);
  EXPECT_THROW((void)nand.program_page(0, 2), std::logic_error);
  (void)nand.erase_block(0);
  EXPECT_NO_THROW((void)nand.program_page(0, 2));
}

TEST(NandTest, InOrderProgramEnforced) {
  NandArray nand(tiny_nand());
  // Page 2 of block 0 cannot be programmed before pages 0 and 1.
  EXPECT_THROW((void)nand.program_page(2, 1), std::logic_error);
  (void)nand.program_page(0, 1);
  (void)nand.program_page(1, 2);
  EXPECT_NO_THROW((void)nand.program_page(2, 3));
}

TEST(NandTest, EraseClearsWholeBlockOnly) {
  NandArray nand(tiny_nand());
  for (Ppn p = 0; p < 4; ++p) (void)nand.program_page(p, p + 1);
  (void)nand.program_page(4, 99);  // block 1, page 0
  (void)nand.erase_block(0);
  for (Ppn p = 0; p < 4; ++p) EXPECT_TRUE(nand.is_erased(p));
  EXPECT_FALSE(nand.is_erased(4));
}

TEST(NandTest, WearCountsPerBlock) {
  NandArray nand(tiny_nand());
  (void)nand.erase_block(3);
  (void)nand.erase_block(3);
  (void)nand.erase_block(1);
  EXPECT_EQ(nand.erase_count(3), 2u);
  EXPECT_EQ(nand.erase_count(1), 1u);
  EXPECT_EQ(nand.erase_count(0), 0u);
  EXPECT_EQ(nand.max_erase_count(), 2u);
  EXPECT_NEAR(nand.mean_erase_count(), 3.0 / 8.0, 1e-12);
}

TEST(NandTest, LatenciesMatchTableIII) {
  NandArray nand;  // default = Table III parameters
  EXPECT_DOUBLE_EQ(nand.program_page(0, 1).value(), 101.475);
  std::uint64_t tag;
  EXPECT_DOUBLE_EQ(nand.read_page(0, &tag).value(), 32.725);
  EXPECT_DOUBLE_EQ(nand.erase_block(0).value(), 1500.0);
}

TEST(NandTest, StatsTrackOps) {
  NandArray nand(tiny_nand());
  (void)nand.program_page(0, 1);
  std::uint64_t tag;
  (void)nand.read_page(0, &tag);
  (void)nand.read_page(1, &tag);
  (void)nand.erase_block(0);
  EXPECT_EQ(nand.stats().page_programs, 1u);
  EXPECT_EQ(nand.stats().page_reads, 2u);
  EXPECT_EQ(nand.stats().block_erases, 1u);
  EXPECT_GT(nand.stats().busy.value(), 0.0);
}

TEST(NandTest, OutOfRangeThrows) {
  NandArray nand(tiny_nand());
  EXPECT_THROW((void)nand.read_page(32), std::out_of_range);
  EXPECT_THROW((void)nand.program_page(32, 1), std::out_of_range);
  EXPECT_THROW((void)nand.erase_block(8), std::out_of_range);
}

TEST(NandTest, GeometryHelpers) {
  NandConfig cfg = tiny_nand();
  EXPECT_EQ(cfg.block_bytes(), 8 * KiB);
  EXPECT_EQ(cfg.total_pages(), 32u);
  EXPECT_EQ(cfg.capacity_bytes(), 64 * KiB);
  NandArray nand(cfg);
  EXPECT_EQ(nand.block_of(5), 1u);
  EXPECT_EQ(nand.page_in_block(5), 1u);
}

// --- RamDevice ---------------------------------------------------------------

TEST(RamTest, AccessCostScalesWithBytes) {
  RamDevice ram;
  EXPECT_LT(ram.access_cost(64), ram.access_cost(1 * MiB));
  // Latency floor applies to tiny accesses.
  EXPECT_GE(ram.access_cost(1).value(), 0.08);
}

TEST(RamTest, ReadWriteBoundsChecked) {
  RamConfig cfg;
  cfg.capacity = 1 * MiB;
  RamDevice ram(cfg);
  EXPECT_TRUE(ram.read(0, 8).ok());
  EXPECT_THROW((void)ram.read(3000, 8), std::out_of_range);
}

TEST(RamTest, MuchFasterThanHdd) {
  RamDevice ram;
  HddModel hdd;
  const Micros r = ram.read(0, 64).latency;
  const Micros h = hdd.read(1'000'000, 64).latency;
  EXPECT_LT(r * 100, h);
}

}  // namespace
}  // namespace ssdse
