#include "src/store/object_store.h"

#include <algorithm>

namespace pronghorn {

const std::vector<uint8_t>& ObjectBlob::bytes() const {
  static const std::vector<uint8_t> kEmpty;
  return data == nullptr ? kEmpty : *data;
}

Status InMemoryObjectStore::Put(std::string_view key, ObjectBlob blob) {
  if (key.empty()) {
    return InvalidArgumentError("object key must be non-empty");
  }
  const uint64_t new_logical = blob.logical_size;
  const uint64_t new_encoded = blob.bytes().size();
  uint64_t old_logical = 0;
  uint64_t old_encoded = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    old_logical = it->second.logical_size;
    old_encoded = it->second.bytes().size();
    it->second = std::move(blob);
  } else {
    objects_.emplace(std::string(key), std::move(blob));
  }
  accounting_.logical_bytes_stored += new_logical - old_logical;
  accounting_.peak_logical_bytes =
      std::max(accounting_.peak_logical_bytes, accounting_.logical_bytes_stored);
  accounting_.network_bytes_uploaded += new_logical;
  accounting_.put_count += 1;
  PhysicalAccounting& physical = accounting_.physical;
  physical.bytes_stored += new_encoded - old_encoded;
  physical.peak_bytes = std::max(physical.peak_bytes, physical.bytes_stored);
  return OkStatus();
}

Result<ObjectBlob> InMemoryObjectStore::Get(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  const ObjectBlob& found = it->second;
  accounting_.network_bytes_downloaded += found.logical_size;
  accounting_.get_count += 1;
  accounting_.physical.chunks_fetched += 1;
  accounting_.physical.bytes_fetched += found.bytes().size();
  return found;  // Shares the stored buffer; no payload copy.
}

Status InMemoryObjectStore::Delete(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("no object with key '" + std::string(key) + "'");
  }
  accounting_.logical_bytes_stored -= it->second.logical_size;
  accounting_.delete_count += 1;
  accounting_.physical.bytes_stored -= it->second.bytes().size();
  objects_.erase(it);
  return OkStatus();
}

bool InMemoryObjectStore::Contains(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return objects_.find(key) != objects_.end();
}

std::vector<std::string> InMemoryObjectStore::ListKeys(std::string_view prefix) const {
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, blob] : objects_) {
      if (key.size() >= prefix.size() &&
          key.compare(0, prefix.size(), prefix) == 0) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

StoreAccounting InMemoryObjectStore::accounting() const {
  StoreAccounting out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = accounting_;
  }
  out.physical.flat_bytes_stored = out.physical.bytes_stored;
  out.physical.peak_flat_bytes = out.physical.peak_bytes;
  return out;
}

}  // namespace pronghorn
