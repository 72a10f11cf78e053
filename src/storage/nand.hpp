// Raw NAND-flash array model beneath the FTL (FlashSim-equivalent,
// DESIGN.md §2). Enforces the physical constraints all FTL correctness
// rests on:
//  * erase-before-write — a programmed page cannot be reprogrammed;
//  * in-order programming within a block;
//  * erase granularity is a whole block.
// Each page stores a 64-bit host tag so FTL tests can assert that data
// survives garbage collection bit-exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "src/storage/fault.hpp"
#include "src/storage/io_result.hpp"
#include "src/util/types.hpp"

namespace ssdse {

struct NandConfig {
  std::uint32_t page_bytes = 2 * KiB;   // Table III
  /// A power of two (NandArray rejects anything else): page -> block
  /// arithmetic is a shift and a mask on every page operation.
  std::uint32_t pages_per_block = 64;   // -> 128 KiB blocks
  std::uint32_t num_blocks = 16 * 1024; // 2 GiB raw by default
  Micros page_read = micros(32.725);            // Table III
  Micros page_program = micros(101.475);        // Table III
  Micros block_erase = micros(1500.0);          // Table III
  NandFaultConfig fault;                // DESIGN.md §10; inert by default

  [[nodiscard]] Bytes block_bytes() const {
    return static_cast<Bytes>(page_bytes) * pages_per_block;
  }
  [[nodiscard]] std::uint64_t total_pages() const {
    return static_cast<std::uint64_t>(num_blocks) * pages_per_block;
  }
  [[nodiscard]] Bytes capacity_bytes() const {
    return static_cast<Bytes>(num_blocks) * block_bytes();
  }
};

/// Physical page number.
using Ppn = std::uint64_t;
/// Physical block number.
using Pbn = std::uint32_t;

constexpr std::uint64_t kNandFreeTag = ~0ull;
/// Poison tag stored by a failed program: the page is consumed (NAND
/// programming is destructive even when it fails) but holds no host
/// data. Distinct from kNandFreeTag and from any make_tag() product.
constexpr std::uint64_t kNandBadTag = ~0ull - 1;

struct NandStats {
  std::uint64_t page_reads = 0;
  std::uint64_t page_programs = 0;
  std::uint64_t block_erases = 0;
  Micros busy = micros(0);
};

class NandArray {
 public:
  /// Throws std::invalid_argument unless cfg.pages_per_block is a
  /// power of two.
  explicit NandArray(const NandConfig& cfg = {});

  [[nodiscard]] const NandConfig& config() const { return cfg_; }
  [[nodiscard]] const NandStats& stats() const { return stats_; }
  [[nodiscard]] const NandFaultModel& fault_model() const { return fault_; }

  /// Read one page; returns latency. `tag_out` receives the stored host
  /// tag (kNandFreeTag if the page is erased). Inline: FTLs issue one
  /// call per page and the simulator's throughput is bounded by it.
  [[nodiscard]] Micros read_page(Ppn ppn, std::uint64_t* tag_out = nullptr) {
    if (ppn >= tags_.size()) throw_ppn_range("read_page", ppn);
    if (tag_out) *tag_out = tags_[ppn];
    ++stats_.page_reads;
    stats_.busy += cfg_.page_read;
    return cfg_.page_read;
  }

  /// Program one page with a host tag. Throws std::logic_error if the
  /// page is not erased or programming is out of order within the block.
  [[nodiscard]] Micros program_page(Ppn ppn, std::uint64_t tag) {
    if (ppn >= tags_.size()) throw_ppn_range("program_page", ppn);
    const Pbn blk = block_of(ppn);
    const std::uint32_t pib = page_in_block(ppn);
    if (tags_[ppn] != kNandFreeTag || pib != next_page_[blk]) {
      throw_program_violation(ppn);
    }
    tags_[ppn] = tag;
    next_page_[blk] = pib + 1;
    ++stats_.page_programs;
    stats_.busy += cfg_.page_program;
    return cfg_.page_program;
  }

  /// Host-path read with the fault model applied: ECC retries add whole
  /// extra page reads; an uncorrectable outcome still charges the full
  /// retry ladder. The tag is delivered regardless — the simulation is
  /// latency-only, so "uncorrectable" is a control-flow signal for the
  /// caller, not data corruption.
  IoResult read_page_checked(Ppn ppn, std::uint64_t* tag_out = nullptr) {
    if (ppn >= tags_.size()) throw_ppn_range("read_page", ppn);
    if (tag_out) *tag_out = tags_[ppn];
    const auto f = fault_.on_read();
    const std::uint64_t reads = 1 + f.retries;
    stats_.page_reads += reads;
    const Micros t = cfg_.page_read * static_cast<double>(reads);
    stats_.busy += t;
    return {t, f.status, f.retries};
  }

  /// Host-path program with the fault model applied. On an injected
  /// failure the page is consumed (poisoned with kNandBadTag, program
  /// cursor advances — programming NAND is destructive even when it
  /// fails) and kWriteFailed is returned; the FTL must remap.
  IoResult program_page_checked(Ppn ppn, std::uint64_t tag) {
    if (ppn >= tags_.size()) throw_ppn_range("program_page", ppn);
    const Pbn blk = block_of(ppn);
    const std::uint32_t pib = page_in_block(ppn);
    if (tags_[ppn] != kNandFreeTag || pib != next_page_[blk]) {
      throw_program_violation(ppn);
    }
    const bool fail = fault_.on_program();
    tags_[ppn] = fail ? kNandBadTag : tag;
    next_page_[blk] = pib + 1;
    ++stats_.page_programs;
    stats_.busy += cfg_.page_program;
    return {cfg_.page_program,
            fail ? IoStatus::kWriteFailed : IoStatus::kOk, 0};
  }

  /// Erase a whole block; increments its wear counter.
  [[nodiscard]] Micros erase_block(Pbn block);

  bool is_erased(Ppn ppn) const;
  std::uint32_t erase_count(Pbn block) const { return wear_[block]; }
  [[nodiscard]] std::uint32_t max_erase_count() const;
  [[nodiscard]] double mean_erase_count() const;

  Pbn block_of(Ppn ppn) const { return static_cast<Pbn>(ppn >> block_shift_); }
  std::uint32_t page_in_block(Ppn ppn) const {
    return static_cast<std::uint32_t>(ppn & page_mask_);
  }

 private:
  [[noreturn]] void throw_ppn_range(const char* fn, Ppn ppn) const;
  [[noreturn]] void throw_program_violation(Ppn ppn) const;

  NandConfig cfg_;
  unsigned block_shift_;  // log2(pages_per_block)
  Ppn page_mask_;         // pages_per_block - 1
  NandStats stats_;
  NandFaultModel fault_{};
  std::vector<std::uint64_t> tags_;         // per page; kNandFreeTag = erased
  std::vector<std::uint32_t> next_page_;    // per block: next programmable page
  std::vector<std::uint32_t> wear_;         // per block erase counts
};

}  // namespace ssdse
