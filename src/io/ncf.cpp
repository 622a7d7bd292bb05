#include "io/ncf.hpp"

#include <cstring>
#include <fstream>
#include <mutex>

#include "common/error.hpp"

namespace exaclim {
namespace {

constexpr char kMagic[4] = {'N', 'C', 'F', '1'};

template <typename T>
void WriteScalar(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadScalar(std::ifstream& in, const std::filesystem::path& path) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  EXACLIM_CHECK(in.good(), "truncated NCF header in " << path);
  return value;
}

// Header bytes of an entry with an empty name: name_len, dtype, count,
// offset.
constexpr std::uint64_t kMinEntryBytes = 4 + 4 + 8 + 8;

}  // namespace

Mutex& NcfGlobalLock() {
  static Mutex lock;
  return lock;
}

NcfWriter::NcfWriter(std::filesystem::path path) : path_(std::move(path)) {}

void NcfWriter::AddFloat(const std::string& name,
                         std::span<const float> data) {
  EXACLIM_CHECK(!finished_, "writer already finished");
  Entry entry;
  entry.name = name;
  entry.dtype = 0;
  entry.payload.resize(data.size() * sizeof(float));
  std::memcpy(entry.payload.data(), data.data(), entry.payload.size());
  entries_.push_back(std::move(entry));
}

void NcfWriter::AddBytes(const std::string& name,
                         std::span<const std::uint8_t> data) {
  EXACLIM_CHECK(!finished_, "writer already finished");
  Entry entry;
  entry.name = name;
  entry.dtype = 1;
  entry.payload.assign(data.begin(), data.end());
  entries_.push_back(std::move(entry));
}

std::int64_t NcfWriter::Finish() {
  EXACLIM_CHECK(!finished_, "writer already finished");
  finished_ = true;
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  EXACLIM_CHECK(out.good(), "cannot open " << path_ << " for writing");

  out.write(kMagic, 4);
  WriteScalar<std::uint32_t>(out, static_cast<std::uint32_t>(entries_.size()));

  // Header size must be known to compute payload offsets; lay out header
  // entries first (name_len, name, dtype, count, offset).
  std::int64_t header_size = 8;  // magic + count
  for (const Entry& e : entries_) {
    header_size += 4 + static_cast<std::int64_t>(e.name.size()) + 4 + 8 + 8;
  }
  std::int64_t offset = header_size;
  for (const Entry& e : entries_) {
    WriteScalar<std::uint32_t>(out, static_cast<std::uint32_t>(e.name.size()));
    out.write(e.name.data(), static_cast<std::streamsize>(e.name.size()));
    WriteScalar<std::uint32_t>(out, static_cast<std::uint32_t>(e.dtype));
    const std::size_t elem = e.dtype == 0 ? sizeof(float) : 1;
    WriteScalar<std::uint64_t>(
        out, static_cast<std::uint64_t>(e.payload.size() / elem));
    WriteScalar<std::uint64_t>(out, static_cast<std::uint64_t>(offset));
    offset += static_cast<std::int64_t>(e.payload.size());
  }
  for (const Entry& e : entries_) {
    out.write(reinterpret_cast<const char*>(e.payload.data()),
              static_cast<std::streamsize>(e.payload.size()));
  }
  EXACLIM_CHECK(out.good(), "write to " << path_ << " failed");
  return offset;
}

NcfReader::NcfReader(std::filesystem::path path, bool use_global_lock)
    : path_(std::move(path)), use_global_lock_(use_global_lock) {
  std::ifstream in(path_, std::ios::binary);
  EXACLIM_CHECK(in.good(), "cannot open " << path_);
  // Nothing the header says sizes an allocation before it is checked
  // against the bytes the file really has: a corrupt or hostile header
  // fails here instead of asking for a 4 GiB name, 2^32 entries or a
  // payload whose byte count overflows.
  const std::uint64_t file_size = std::filesystem::file_size(path_);
  char magic[4];
  in.read(magic, 4);
  EXACLIM_CHECK(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                path_ << " is not an NCF file");
  const auto count = ReadScalar<std::uint32_t>(in, path_);
  std::uint64_t pos = 8;
  EXACLIM_CHECK(count <= (file_size - pos) / kMinEntryBytes,
                path_ << ": header lists " << count << " datasets, more than "
                      << file_size << " bytes can hold");
  entries_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto name_len = ReadScalar<std::uint32_t>(in, path_);
    pos += 4;
    EXACLIM_CHECK(name_len + kMinEntryBytes - 4 <= file_size - pos,
                  path_ << ": dataset name of " << name_len
                        << " bytes runs past the end of the header");
    Entry entry;
    entry.name.resize(name_len);
    in.read(entry.name.data(), name_len);
    EXACLIM_CHECK(in.good(), "truncated NCF header in " << path_);
    const auto dtype = ReadScalar<std::uint32_t>(in, path_);
    const auto elems = ReadScalar<std::uint64_t>(in, path_);
    const auto offset = ReadScalar<std::uint64_t>(in, path_);
    pos += name_len + kMinEntryBytes - 4;
    EXACLIM_CHECK(dtype == 0 || dtype == 1,
                  path_ << ": dataset " << entry.name << " has unknown dtype "
                        << dtype);
    // Divide instead of multiplying, so no byte count can overflow.
    const std::uint64_t elem_size = dtype == 0 ? sizeof(float) : 1;
    EXACLIM_CHECK(offset <= file_size &&
                      elems <= (file_size - offset) / elem_size,
                  path_ << ": dataset " << entry.name << " (" << elems
                        << " x " << elem_size << " bytes at offset " << offset
                        << ") runs past the end of the file (" << file_size
                        << " bytes)");
    entry.dtype = static_cast<int>(dtype);
    entry.count = static_cast<std::int64_t>(elems);
    entry.offset = static_cast<std::int64_t>(offset);
    entries_.push_back(std::move(entry));
  }
  file_bytes_ = static_cast<std::int64_t>(file_size);
}

std::vector<std::string> NcfReader::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

bool NcfReader::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

// Recoverable lookup failure (DESIGN §8): callers probing for optional
// datasets — e.g. a checkpoint loader meeting an older file layout — can
// catch this, so the message lists what IS in the file to make the
// mismatch diagnosable.
[[noreturn]] void NcfReader::ThrowNoSuchDataset(
    const std::string& name) const {
  std::string present;
  for (const Entry& e : entries_) {
    if (!present.empty()) present += ", ";
    present += e.name;
  }
  if (present.empty()) present = "<none>";
  throw Error("no dataset named " + name + " in " + path_.string() +
              " (present: " + present + ")");
}

std::int64_t NcfReader::Count(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.count;
  }
  ThrowNoSuchDataset(name);
}

const NcfReader::Entry& NcfReader::Find(const std::string& name,
                                        int dtype) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      EXACLIM_CHECK(e.dtype == dtype,
                    "dataset " << name << " has dtype " << e.dtype);
      return e;
    }
  }
  ThrowNoSuchDataset(name);
}

std::vector<std::uint8_t> NcfReader::ReadPayload(const Entry& entry,
                                                 std::size_t elem_size) const {
  if (use_global_lock_) {
    MutexLock lock(NcfGlobalLock());
    return ReadPayloadUnlocked(entry, elem_size);
  }
  return ReadPayloadUnlocked(entry, elem_size);
}

std::vector<std::uint8_t> NcfReader::ReadPayloadUnlocked(
    const Entry& entry, std::size_t elem_size) const {
  // The constructor bounded count * elem_size by the file size.
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(entry.count) * elem_size);
  ReadRawUnlocked(entry, payload.data(), payload.size());
  return payload;
}

void NcfReader::ReadRawUnlocked(const Entry& entry, void* dst,
                                std::size_t bytes) const {
  std::ifstream in(path_, std::ios::binary);
  EXACLIM_CHECK(in.good(), "cannot open " << path_);
  in.seekg(entry.offset);
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  EXACLIM_CHECK(in.good(), "truncated payload for " << entry.name);
}

std::vector<float> NcfReader::ReadFloat(const std::string& name) const {
  const Entry& entry = Find(name, 0);
  const auto payload = ReadPayload(entry, sizeof(float));
  std::vector<float> data(static_cast<std::size_t>(entry.count));
  std::memcpy(data.data(), payload.data(), payload.size());
  return data;
}

void NcfReader::ReadFloatInto(const std::string& name,
                              std::span<float> out) const {
  const Entry& entry = Find(name, 0);
  EXACLIM_CHECK(static_cast<std::int64_t>(out.size()) == entry.count,
                "dataset " << name << " holds " << entry.count
                           << " floats, caller provided " << out.size());
  const std::size_t bytes = out.size() * sizeof(float);
  if (use_global_lock_) {
    MutexLock lock(NcfGlobalLock());
    ReadRawUnlocked(entry, out.data(), bytes);
    return;
  }
  ReadRawUnlocked(entry, out.data(), bytes);
}

std::vector<std::uint8_t> NcfReader::ReadBytes(const std::string& name) const {
  const Entry& entry = Find(name, 1);
  return ReadPayload(entry, 1);
}

}  // namespace exaclim
