#include "src/storage/nand.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>

namespace ssdse {

namespace {

const NandConfig& checked(const NandConfig& cfg) {
  if (!std::has_single_bit(cfg.pages_per_block)) {
    throw std::invalid_argument(
        "NandArray: pages_per_block must be a power of two, got " +
        std::to_string(cfg.pages_per_block));
  }
  return cfg;
}

}  // namespace

NandArray::NandArray(const NandConfig& cfg)
    : cfg_(checked(cfg)),
      block_shift_(
          static_cast<unsigned>(std::countr_zero(cfg.pages_per_block))),
      page_mask_(cfg.pages_per_block - 1),
      fault_(cfg.fault),
      tags_(cfg.total_pages(), kNandFreeTag),
      next_page_(cfg.num_blocks, 0),
      wear_(cfg.num_blocks, 0) {}

void NandArray::throw_ppn_range(const char* fn, Ppn /*ppn*/) const {
  throw std::out_of_range(std::string("NandArray::") + fn +
                          ": ppn out of range");
}

void NandArray::throw_program_violation(Ppn ppn) const {
  if (tags_[ppn] != kNandFreeTag) {
    throw std::logic_error(
        "NandArray: program of non-erased page " + std::to_string(ppn) +
        " (erase-before-write violation)");
  }
  const Pbn blk = block_of(ppn);
  const std::uint32_t pib = page_in_block(ppn);
  throw std::logic_error(
      "NandArray: out-of-order program in block " + std::to_string(blk) +
      ": page " + std::to_string(pib) + ", expected " +
      std::to_string(next_page_[blk]));
}

Micros NandArray::erase_block(Pbn block) {
  if (block >= cfg_.num_blocks) {
    throw std::out_of_range("NandArray::erase_block: block out of range");
  }
  const Ppn base = static_cast<Ppn>(block) * cfg_.pages_per_block;
  std::fill(tags_.begin() + static_cast<std::ptrdiff_t>(base),
            tags_.begin() + static_cast<std::ptrdiff_t>(base) +
                cfg_.pages_per_block,
            kNandFreeTag);
  next_page_[block] = 0;
  ++wear_[block];
  ++stats_.block_erases;
  stats_.busy += cfg_.block_erase;
  return cfg_.block_erase;
}

bool NandArray::is_erased(Ppn ppn) const {
  if (ppn >= cfg_.total_pages()) {
    throw std::out_of_range("NandArray::is_erased: ppn out of range");
  }
  return tags_[ppn] == kNandFreeTag;
}

std::uint32_t NandArray::max_erase_count() const {
  return *std::max_element(wear_.begin(), wear_.end());
}

double NandArray::mean_erase_count() const {
  const auto sum = std::accumulate(wear_.begin(), wear_.end(), 0ull);
  return static_cast<double>(sum) / static_cast<double>(wear_.size());
}

}  // namespace ssdse
