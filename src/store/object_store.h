// Object store (MinIO stand-in) for snapshot images.
//
// The store distinguishes *physical* bytes (the encoded image actually held)
// from *logical* bytes (the modeled CRIU image size, dominated by heap pages
// that the simulator does not materialize). All storage and network
// accounting — the basis of the paper's Table 5 — is in logical bytes.

#ifndef PRONGHORN_SRC_STORE_OBJECT_STORE_H_
#define PRONGHORN_SRC_STORE_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"

namespace pronghorn {

// Transparent hash so unordered_map<std::string, ...> lookups take a
// string_view without materializing a temporary std::string (C++20
// heterogeneous lookup; pair with std::equal_to<>).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

// A stored blob plus its modeled size. The payload is held behind a shared
// immutable buffer so stores, retries, and readers pass multi-MB snapshot
// images around by reference count instead of deep copy; anyone needing to
// mutate the bytes (the fault-injection corruption decorator) builds a fresh
// private buffer first.
struct ObjectBlob {
  ObjectBlob() = default;
  ObjectBlob(std::vector<uint8_t> payload, uint64_t logical)
      : data(std::make_shared<const std::vector<uint8_t>>(std::move(payload))),
        logical_size(logical) {}

  // The payload; an empty buffer when default-constructed.
  const std::vector<uint8_t>& bytes() const;

  std::shared_ptr<const std::vector<uint8_t>> data;
  uint64_t logical_size = 0;
};

// Chunk-granular physical accounting (SnapshotStore layer). Tracks the bytes
// a store actually holds and moves, as opposed to the modeled logical (CRIU
// image) bytes of StoreAccounting proper. Deliberately EXCLUDED from report
// digests: SerializeStoreAccounting writes only the seven logical fields, so
// flat and dedup stores produce bit-identical digests while differing here.
struct PhysicalAccounting {
  uint64_t bytes_stored = 0;        // Resident unique chunk + manifest bytes.
  uint64_t peak_bytes = 0;
  uint64_t flat_bytes_stored = 0;   // What a non-deduplicating store would hold.
  uint64_t peak_flat_bytes = 0;
  uint64_t chunks_stored = 0;       // Resident unique chunks.
  uint64_t chunk_refs = 0;          // Live manifest->chunk references.
  uint64_t dedup_hits = 0;          // Put chunks that were already resident.
  uint64_t dedup_bytes_saved = 0;   // Bytes not stored thanks to dedup.
  uint64_t delta_bytes_shared = 0;  // Saved bytes shared with the immediately
                                    // preceding snapshot of the same prefix.
  uint64_t chunks_fetched = 0;      // Physical chunk transfers to restores.
  uint64_t bytes_fetched = 0;
  uint64_t chunks_prefetched = 0;   // Lazy restore: recorded-working-set fetches.
  uint64_t demand_faults = 0;       // Lazy restore: chunks outside the set.
  uint64_t cache_hits = 0;          // Lazy restore: host-cache hits (no fetch).
  uint64_t chunks_collected = 0;    // GC-reclaimed chunks.
  uint64_t bytes_collected = 0;

  // Flat-vs-physical footprint ratio at the high-water mark; 1.0 for a store
  // that never deduplicated anything (or stored nothing).
  double DedupRatio() const {
    if (peak_bytes == 0) {
      return 1.0;
    }
    return static_cast<double>(peak_flat_bytes) / static_cast<double>(peak_bytes);
  }
};

// Cumulative transfer/storage accounting.
struct StoreAccounting {
  uint64_t logical_bytes_stored = 0;    // Current logical footprint.
  uint64_t peak_logical_bytes = 0;      // High-water mark (Table 5 "max storage").
  uint64_t network_bytes_uploaded = 0;  // Cumulative Put traffic.
  uint64_t network_bytes_downloaded = 0;// Cumulative Get traffic.
  uint64_t put_count = 0;
  uint64_t get_count = 0;
  uint64_t delete_count = 0;
  // Digest-excluded physical view (see PhysicalAccounting above).
  PhysicalAccounting physical;
};

// The blob store behind FlatSnapshotStore: a thread-safe in-memory map from
// key to ObjectBlob with byte accounting, all guarded by one mutex. Fleet
// shards each own their store, so only service mode shares one across
// threads. ListKeys returns lexicographic order.
class InMemoryObjectStore {
 public:
  InMemoryObjectStore() = default;

  // Stores `blob` under `key`, replacing any existing object.
  Status Put(std::string_view key, ObjectBlob blob);
  // Fetches the object; the payload buffer is shared, not copied.
  Result<ObjectBlob> Get(std::string_view key);
  Status Delete(std::string_view key);
  bool Contains(std::string_view key) const;
  // Keys in lexicographic order, optionally filtered by prefix.
  std::vector<std::string> ListKeys(std::string_view prefix = "") const;
  StoreAccounting accounting() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, ObjectBlob, TransparentStringHash,
                     std::equal_to<>>
      objects_;
  // Flat store: the physical view is the encoded payload held, so only
  // its bytes, peak and fetch counters are maintained; accounting() mirrors
  // them into the flat fields.
  StoreAccounting accounting_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_STORE_OBJECT_STORE_H_
