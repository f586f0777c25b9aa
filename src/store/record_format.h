// On-media record layout shared by every storage backend. A record is
// [key | value | RecordHeader]; the header (monotonic store-wide seqno +
// CRC32C over key+value+seqno + trailing commit magic) is made durable *after*
// the payload, so a record counts as committed only when its header
// validates. The magic sits last so a torn header flush can never
// validate: the durable prefix of a torn 16-byte header always ends
// before the magic completes. ViperStore persists the header with a PMem
// fence; DiskStore with a page write-through + fsync — same protocol,
// different barrier (see DESIGN.md "Crash consistency"). Sealing,
// validation and the recovery-time "latest record per key" resolution
// live here; SlottedStore (store/slotted_store.h) runs the protocol and the
// recovery walk once for both media.
#ifndef PIECES_STORE_RECORD_FORMAT_H_
#define PIECES_STORE_RECORD_FORMAT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/checksum.h"
#include "index/ordered_index.h"

namespace pieces {

// Per-record commit metadata, durable after the payload.
struct RecordHeader {
  uint64_t seqno = 0;  // Monotonic, 0 = never committed.
  uint32_t crc = 0;    // CRC32C over key+value, then the seqno's 8 bytes.
  uint32_t magic = 0;  // kRecordCommitMagic when committed.
};
static_assert(sizeof(RecordHeader) == 16);

inline constexpr uint32_t kRecordCommitMagic = 0x50435631u;  // "1VCP"

// The commit CRC: the payload chained with the seqno, so a flipped seqno
// bit cannot let a stale version win LatestPerKey at recovery.
inline uint32_t RecordCrc(const uint8_t* payload, size_t payload_bytes,
                          uint64_t seqno) {
  return Crc32c(reinterpret_cast<const uint8_t*>(&seqno), sizeof(seqno),
                Crc32c(payload, payload_bytes));
}

// The commit header for a record whose first `payload_bytes` hold
// key+value; persisted after the payload, it makes the record count.
inline RecordHeader SealRecord(const uint8_t* payload, size_t payload_bytes,
                               uint64_t seqno) {
  RecordHeader header;
  header.seqno = seqno;
  header.crc = RecordCrc(payload, payload_bytes, seqno);
  header.magic = kRecordCommitMagic;
  return header;
}

// A committed record found by a recovery scan.
struct RecoveredRecord {
  Key key = 0;
  Value handle = 0;  // where the medium keeps it
  uint64_t seqno = 0;
};

// True iff the record image [key | value | RecordHeader] is committed;
// then fills out->key and out->seqno. Zeroed (never written or
// crash-discarded) slots fail the magic check, torn headers cannot
// complete the trailing magic, and torn payloads or a corrupted seqno fail
// the CRC.
inline bool ValidateRecord(const uint8_t* record, size_t payload_bytes,
                           RecoveredRecord* out) {
  RecordHeader header;
  std::memcpy(&header, record + payload_bytes, sizeof(RecordHeader));
  if (header.magic != kRecordCommitMagic || header.seqno == 0) return false;
  if (RecordCrc(record, payload_bytes, header.seqno) != header.crc) {
    return false;
  }
  std::memcpy(&out->key, record, sizeof(Key));
  out->seqno = header.seqno;
  return true;
}

// Out-of-place updates leave several committed records per key; the
// highest seqno wins. Sorts `records` and returns the winners' (key,
// handle) pairs in key order, ready for OrderedIndex::BulkLoad, and sets
// *max_seqno to the highest seqno seen (0 when none) — the store resumes
// after it.
inline std::vector<KeyValue> LatestPerKey(
    std::vector<RecoveredRecord>& records, uint64_t* max_seqno) {
  std::sort(records.begin(), records.end(),
            [](const RecoveredRecord& a, const RecoveredRecord& b) {
              return a.key != b.key ? a.key < b.key : a.seqno < b.seqno;
            });
  std::vector<KeyValue> latest;
  latest.reserve(records.size());
  *max_seqno = 0;
  for (const RecoveredRecord& r : records) {
    *max_seqno = std::max(*max_seqno, r.seqno);
    if (!latest.empty() && latest.back().key == r.key) {
      latest.back().value = r.handle;
    } else {
      latest.push_back({r.key, r.handle});
    }
  }
  return latest;
}

// The deterministic value the synthetic write paths store for `key`,
// shared across backends so differential tests can compare payloads
// byte-for-byte between media.
inline void FillSyntheticRecordValue(Key key, uint8_t* buf,
                                     size_t value_size) {
  for (size_t i = 0; i < value_size; ++i) {
    buf[i] = static_cast<uint8_t>((key >> (8 * (i % 8))) ^ i);
  }
}

}  // namespace pieces

#endif  // PIECES_STORE_RECORD_FORMAT_H_
