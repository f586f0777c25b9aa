#include "store/viper.h"

namespace pieces {

ViperStore::ViperStore(std::unique_ptr<OrderedIndex> index,
                       const Config& config)
    // A page is its slots, rounded to the arena's 8-byte grain.
    : SlottedStore(std::move(index), config.value_size, config.slots_per_page,
                   ((sizeof(Key) + config.value_size + sizeof(RecordHeader)) *
                        config.slots_per_page +
                    7) & ~size_t{7},
                   /*group_ops=*/0, /*group_delay_us=*/0),
      pmem_(config.pmem_capacity, config.read_latency_ns,
            config.write_latency_ns) {}

uint32_t ViperStore::AllocatePage() {
  // The arena holds nothing but pages, so a page's id is its offset.
  const uint8_t* base = pmem_.Allocate(page_bytes());
  if (base == nullptr) return kNoPage;
  return static_cast<uint32_t>((base - pmem_.AddressAt(0)) / page_bytes());
}

void ViperStore::ReadValues(const SlotRead* reads, size_t n) const {
  // Touch every value's cache lines before the copies so the PMem reads
  // overlap instead of serializing; the batch pays the latency once.
  const uint8_t* srcs[kReadTile];
  uint8_t* dsts[kReadTile];
  for (size_t i = 0; i < n; ++i) {
    srcs[i] = ValueAt(reads[i].handle);
    dsts[i] = reads[i].dst;
    for (size_t off = 0; off < value_size(); off += 64) {
      __builtin_prefetch(srcs[i] + off);
    }
  }
  pmem_.ReadBatch(srcs, dsts, value_size(), n);
}

}  // namespace pieces
