#include "src/store/kv_database.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace pronghorn {

// Counter semantics: reads/writes count even when the operation then fails
// with kNotFound, and cas_attempts counts conflicted attempts.

Status InMemoryKvDatabase::Put(std::string_view key, std::vector<uint8_t> value) {
  if (key.empty()) {
    return InvalidArgumentError("database key must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  accounting_.writes += 1;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(std::string(key), VersionedValue{std::move(value), 1});
  } else {
    it->second.value = std::move(value);
    it->second.version += 1;
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> InMemoryKvDatabase::Get(std::string_view key) {
  PRONGHORN_ASSIGN_OR_RETURN(VersionedValue versioned, GetVersioned(key));
  return std::move(versioned.value);
}

Result<VersionedValue> InMemoryKvDatabase::GetVersioned(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  accounting_.reads += 1;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return NotFoundError("no database entry for '" + std::string(key) + "'");
  }
  return it->second;
}

Status InMemoryKvDatabase::CompareAndSwap(std::string_view key,
                                          uint64_t expected_version,
                                          std::vector<uint8_t> value) {
  if (key.empty()) {
    return InvalidArgumentError("database key must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  accounting_.cas_attempts += 1;
  auto it = entries_.find(key);
  const uint64_t current_version = it == entries_.end() ? 0 : it->second.version;
  if (current_version != expected_version) {
    accounting_.cas_conflicts += 1;
    return AbortedError("version mismatch for '" + std::string(key) + "': expected " +
                        std::to_string(expected_version) + ", found " +
                        std::to_string(current_version));
  }
  if (it == entries_.end()) {
    entries_.emplace(std::string(key), VersionedValue{std::move(value), 1});
  } else {
    it->second.value = std::move(value);
    it->second.version += 1;
  }
  return OkStatus();
}

Status InMemoryKvDatabase::Delete(std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  accounting_.writes += 1;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return NotFoundError("no database entry for '" + std::string(key) + "'");
  }
  entries_.erase(it);
  return OkStatus();
}

Result<int64_t> InMemoryKvDatabase::Increment(std::string_view key) {
  if (key.empty()) {
    return InvalidArgumentError("database key must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  accounting_.writes += 1;
  auto it = entries_.find(key);
  int64_t current = 0;
  if (it != entries_.end()) {
    ByteReader reader(it->second.value);
    PRONGHORN_ASSIGN_OR_RETURN(current, reader.ReadInt64());
  }
  const int64_t next = current + 1;
  ByteWriter writer;
  writer.WriteInt64(next);
  if (it == entries_.end()) {
    entries_.emplace(std::string(key), VersionedValue{writer.TakeData(), 1});
  } else {
    it->second.value = writer.TakeData();
    it->second.version += 1;
  }
  return next;
}

std::vector<std::string> InMemoryKvDatabase::ListKeys(std::string_view prefix) const {
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, value] : entries_) {
      if (key.size() >= prefix.size() &&
          key.compare(0, prefix.size(), prefix) == 0) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

KvAccounting InMemoryKvDatabase::accounting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accounting_;
}

}  // namespace pronghorn
