#include "vpfs/vpfs.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.h"
#include "util/wire.h"

namespace lateral::vpfs {
namespace {

constexpr std::size_t kStoredBlockSize = kVpfsBlockSize + 32;  // ct || mac

}  // namespace

Vpfs::Vpfs(legacy::LegacyFilesystem& backing,
           substrate::IsolationSubstrate& substrate,
           substrate::DomainId domain, std::string prefix)
    : backing_(backing),
      substrate_(substrate),
      domain_(domain),
      prefix_(std::move(prefix)) {}

std::string Vpfs::data_path(std::uint64_t file_id) const {
  return prefix_ + "/f" + std::to_string(file_id);
}

std::uint64_t Vpfs::block_nonce(std::uint64_t file_id, std::size_t block,
                                std::uint64_t version) const {
  // Nonce uniqueness across (file, block, version): fold into 64 bits via
  // hashing — AES-CTR reuse of a (key, nonce) pair would break
  // confidentiality.
  Bytes material;
  wire::ByteWriter w(material);
  w.u64(file_id);
  w.u64(block);
  w.u64(version);
  return wire::load_be64(crypto::Sha256::hash(material).data());
}

crypto::Digest Vpfs::block_mac(std::uint64_t file_id, std::size_t block,
                               std::uint64_t version,
                               BytesView ciphertext) const {
  std::uint8_t header[24];
  wire::store_be64(header, file_id);
  wire::store_be64(header + 8, block);
  wire::store_be64(header + 16, version);
  return keys_->mac.mac({BytesView(header, sizeof(header)), ciphertext});
}

Status Vpfs::attach_block_plane(substrate::DomainId disk,
                                substrate::RegionId region) {
  // Pre-flight with the same reference-monitor logic transit will use: the
  // probe descriptor must name a full stored block and pass endpoint /
  // mapping / epoch validation for both sides of the handoff.
  auto probe = substrate_.make_descriptor(domain_, region, 0,
                                          kStoredBlockSize);
  if (!probe) return probe.error();
  if (const Status s = substrate_.check_descriptor(disk, *probe); !s.ok())
    return s;
  disk_domain_ = disk;
  block_region_ = region;
  return Status::success();
}

void Vpfs::detach_block_plane() {
  disk_domain_ = substrate::kInvalidDomain;
  block_region_ = 0;
}

Result<Bytes> Vpfs::load_block(const FileMeta& file, std::size_t block) const {
  const BlockMeta& meta = file.blocks[block];
  const std::size_t slot_offset =
      (2 * block + (meta.version & 1)) * kStoredBlockSize;
  auto stored = backing_.read(data_path(file.file_id), slot_offset,
                              kStoredBlockSize);
  if (!stored) return Errc::io_error;
  if (stored->size() != kStoredBlockSize) return Errc::tamper_detected;

  BytesView transit(stored->data(), stored->size());
  if (block_region_ != 0) {
    // Zero-copy inbound: the disk domain stages the stored block into the
    // grant region (its single copy) and this domain verifies/decrypts it
    // in place — constant-cost access instead of another owned-buffer copy.
    auto desc = substrate_.make_descriptor(disk_domain_, block_region_, 0,
                                           kStoredBlockSize);
    if (!desc) return desc.error();
    if (const Status s =
            substrate_.region_write(disk_domain_, block_region_, 0, transit);
        !s.ok())
      return s.error();
    auto view = substrate_.region_view(domain_, *desc);
    if (!view) return view.error();
    transit = *view;
    stats_.zero_copy_blocks++;
  }

  const BytesView ciphertext(transit.data(), kVpfsBlockSize);
  const BytesView stored_mac(transit.data() + kVpfsBlockSize, 32);
  const crypto::Digest expected =
      block_mac(file.file_id, block, meta.version, ciphertext);
  // Double check against both the stored MAC and the metadata's record —
  // either mismatch means the legacy stack served tampered bytes.
  if (!ct_equal(crypto::digest_view(expected), stored_mac) ||
      !ct_equal(crypto::digest_view(expected),
                crypto::digest_view(meta.mac))) {
    stats_.mac_failures++;
    return Errc::tamper_detected;
  }
  stats_.blocks_decrypted++;
  // Software AES + HMAC per block, billed to the simulated CPU.
  substrate_.machine().charge(
      0, substrate_.machine().costs().sw_aes_per_16_bytes, kVpfsBlockSize);
  substrate_.machine().charge(
      0, substrate_.machine().costs().sw_sha_per_64_bytes / 4, kVpfsBlockSize);
  return crypto::aes128_ctr(keys_->cipher,
                            block_nonce(file.file_id, block, meta.version),
                            ciphertext);
}

Status Vpfs::store_block(FileMeta& file, std::size_t block,
                         BytesView plaintext) {
  BlockMeta& meta = file.blocks[block];
  if (!meta.dirty) {
    meta.version++;
    meta.dirty = true;
  }
  const Bytes ciphertext = crypto::aes128_ctr(
      keys_->cipher, block_nonce(file.file_id, block, meta.version), plaintext);
  meta.mac = block_mac(file.file_id, block, meta.version, ciphertext);
  stats_.blocks_encrypted++;
  substrate_.machine().charge(
      0, substrate_.machine().costs().sw_aes_per_16_bytes, kVpfsBlockSize);
  substrate_.machine().charge(
      0, substrate_.machine().costs().sw_sha_per_64_bytes / 4, kVpfsBlockSize);

  Bytes stored(ciphertext);
  stored.insert(stored.end(), meta.mac.begin(), meta.mac.end());
  // Shadow slots: version v lives in slot v%2, so the previously committed
  // version survives until the next commit makes it garbage.
  const std::size_t slot_offset =
      (2 * block + (meta.version & 1)) * kStoredBlockSize;

  if (block_region_ != 0) {
    // Zero-copy outbound: stage ciphertext+MAC into the grant region (the
    // producer's single copy) and let the disk domain consume it in place.
    // Only ciphertext crosses — the shared mapping leaks nothing the
    // compromised legacy stack couldn't already snoop from its own store.
    auto desc = substrate_.make_descriptor(domain_, block_region_, 0,
                                           stored.size());
    if (!desc) return desc.error();
    if (const Status s =
            substrate_.region_write(domain_, block_region_, 0, stored);
        !s.ok())
      return s;
    auto view = substrate_.region_view(disk_domain_, *desc);
    if (!view) return view.error();
    stats_.zero_copy_blocks++;
    return backing_.write(data_path(file.file_id), slot_offset, *view);
  }
  return backing_.write(data_path(file.file_id), slot_offset, stored);
}

Status Vpfs::create(const std::string& name) {
  if (name.empty()) return Errc::invalid_argument;
  if (files_.contains(name)) return Errc::invalid_argument;
  FileMeta meta;
  meta.file_id = next_file_id_++;
  files_.emplace(name, std::move(meta));
  (void)backing_.create(data_path(files_.at(name).file_id));
  return Status::success();
}

bool Vpfs::exists(const std::string& name) const {
  return files_.contains(name);
}

Status Vpfs::remove(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) return Errc::invalid_argument;
  pending_deletes_.push_back(data_path(it->second.file_id));
  files_.erase(it);
  return Status::success();
}

Result<std::size_t> Vpfs::size(const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end()) return Errc::invalid_argument;
  return it->second.size;
}

std::vector<std::string> Vpfs::list() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, meta] : files_) names.push_back(name);
  return names;
}

Status Vpfs::write(const std::string& name, std::size_t offset,
                   BytesView data) {
  const auto it = files_.find(name);
  if (it == files_.end()) return Errc::invalid_argument;
  FileMeta& file = it->second;

  const std::size_t end = offset + data.size();
  const std::size_t blocks_needed = (end + kVpfsBlockSize - 1) / kVpfsBlockSize;
  while (file.blocks.size() < blocks_needed) file.blocks.emplace_back();
  if (end > file.size) file.size = end;

  std::size_t cursor = offset;
  while (!data.empty()) {
    const std::size_t block = cursor / kVpfsBlockSize;
    const std::size_t in_block = cursor % kVpfsBlockSize;
    const std::size_t n = std::min(data.size(), kVpfsBlockSize - in_block);

    Bytes plaintext(kVpfsBlockSize, 0);
    if (file.blocks[block].version > 0 || file.blocks[block].dirty) {
      // Read-modify-write of an existing block.
      if (file.blocks[block].version > 0) {
        auto existing = load_block(file, block);
        if (!existing) return existing.error();
        plaintext = std::move(*existing);
      }
    }
    std::copy(data.begin(), data.begin() + static_cast<long>(n),
              plaintext.begin() + static_cast<long>(in_block));
    if (const Status s = store_block(file, block, plaintext); !s.ok())
      return s;
    data = data.subspan(n);
    cursor += n;
  }
  return Status::success();
}

Result<Bytes> Vpfs::read(const std::string& name, std::size_t offset,
                         std::size_t len) const {
  const auto it = files_.find(name);
  if (it == files_.end()) return Errc::invalid_argument;
  const FileMeta& file = it->second;
  if (offset >= file.size) return Bytes{};
  len = std::min(len, file.size - offset);

  Bytes out;
  out.reserve(len);
  std::size_t cursor = offset;
  std::size_t remaining = len;
  while (remaining > 0) {
    const std::size_t block = cursor / kVpfsBlockSize;
    const std::size_t in_block = cursor % kVpfsBlockSize;
    const std::size_t n = std::min(remaining, kVpfsBlockSize - in_block);
    if (file.blocks[block].version == 0) {
      out.insert(out.end(), n, 0);  // sparse hole
    } else {
      auto plaintext = load_block(file, block);
      if (!plaintext) return plaintext.error();
      out.insert(out.end(), plaintext->begin() + static_cast<long>(in_block),
                 plaintext->begin() + static_cast<long>(in_block + n));
    }
    cursor += n;
    remaining -= n;
  }
  return out;
}

Status Vpfs::rename(const std::string& from, const std::string& to) {
  if (to.empty() || files_.contains(to)) return Errc::invalid_argument;
  const auto it = files_.find(from);
  if (it == files_.end()) return Errc::invalid_argument;
  // Pure metadata operation: block MACs bind file_id, not the name.
  files_.emplace(to, std::move(it->second));
  files_.erase(it);
  return Status::success();
}

Vpfs::FsckReport Vpfs::fsck() const {
  FsckReport report;
  for (const auto& [name, file] : files_) {
    report.files_checked++;
    bool damaged = false;
    for (std::size_t block = 0; block < file.blocks.size(); ++block) {
      if (file.blocks[block].version == 0) continue;  // sparse hole
      report.blocks_checked++;
      if (!load_block(file, block).ok()) damaged = true;
    }
    if (damaged) report.damaged_files.push_back(name);
  }
  return report;
}

Bytes Vpfs::serialize_meta() const {
  Bytes plain;
  wire::ByteWriter w(plain);
  w.u64(next_file_id_);
  w.u64(files_.size());
  for (const auto& [name, file] : files_) {
    w.blob64(wire::as_bytes(name));
    w.u64(file.file_id);
    w.u64(file.size);
    w.u64(file.blocks.size());
    for (const BlockMeta& block : file.blocks) {
      w.u64(block.version);
      w.bytes(block.mac);
    }
  }
  // Encrypt the whole table: file names and shapes are confidential too.
  return crypto::aes128_ctr(keys_->cipher, block_nonce(0, 0, commit_seq_ + 1),
                            plain);
}

Status Vpfs::deserialize_meta(BytesView blob) {
  const Bytes plain =
      crypto::aes128_ctr(keys_->cipher, block_nonce(0, 0, commit_seq_), blob);
  files_.clear();
  wire::ByteReader r(plain);
  auto next_file_id = r.u64();
  auto file_count = r.u64();
  if (!next_file_id || !file_count) return Errc::tamper_detected;
  next_file_id_ = *next_file_id;
  for (std::uint64_t i = 0; i < *file_count; ++i) {
    auto name = r.blob64();
    auto file_id = r.u64();
    auto size = r.u64();
    auto block_count = r.u64();
    if (!name || !file_id || !size || !block_count ||
        *block_count > r.remaining() / 40)
      return Errc::tamper_detected;
    FileMeta file;
    file.file_id = *file_id;
    file.size = *size;
    file.blocks.resize(*block_count);
    for (BlockMeta& block : file.blocks) {
      auto version = r.u64();
      auto mac = r.bytes(block.mac.size());
      if (!version || !mac) return Errc::tamper_detected;
      block.version = *version;
      std::copy(mac->begin(), mac->end(), block.mac.begin());
    }
    files_.emplace(std::string(wire::as_text(*name)), std::move(file));
  }
  return Status::success();
}

Status Vpfs::write_seal(const crypto::Digest& meta_digest) {
  Bytes state = raw_keys_;
  wire::ByteWriter w(state);
  w.bytes(meta_digest);
  w.u64(commit_seq_);
  w.u64(substrate_.machine().nv_counter());
  auto sealed = substrate_.seal(domain_, state);
  if (!sealed) return sealed.error();
  if (!backing_.exists(seal_path())) (void)backing_.create(seal_path());
  (void)backing_.truncate(seal_path(), 0);
  return backing_.write(seal_path(), 0, *sealed);
}

Status Vpfs::sync() {
  stats_.syncs++;
  // Step 1: data blocks are already durable in their shadow slots.
  if (crash_point_ == CrashPoint::after_data_blocks) {
    crash_point_ = CrashPoint::none;
    return Errc::io_error;  // "power failed here"
  }

  // Step 2: stage the new metadata blob.
  const std::uint64_t new_seq = commit_seq_ + 1;
  const Bytes meta_blob = serialize_meta();
  const crypto::Digest meta_digest = crypto::Sha256::hash(meta_blob);
  if (!backing_.exists(staged_meta_path()))
    (void)backing_.create(staged_meta_path());
  (void)backing_.truncate(staged_meta_path(), 0);
  if (const Status s = backing_.write(staged_meta_path(), 0, meta_blob);
      !s.ok())
    return s;
  if (crash_point_ == CrashPoint::after_meta_write) {
    crash_point_ = CrashPoint::none;
    return Errc::io_error;
  }

  // Step 3: journal the commit intent (jVPFS-style roll-forward record).
  Bytes record;
  wire::ByteWriter w(record);
  w.u64(new_seq);
  w.bytes(meta_digest);
  const crypto::Digest record_mac = keys_->mac.mac({record});
  record.insert(record.end(), record_mac.begin(), record_mac.end());
  if (!backing_.exists(journal_path())) (void)backing_.create(journal_path());
  const auto journal_size = backing_.size(journal_path());
  if (!journal_size) return Errc::io_error;
  if (const Status s = backing_.write(journal_path(), *journal_size, record);
      !s.ok())
    return s;
  if (crash_point_ == CrashPoint::after_journal_commit) {
    crash_point_ = CrashPoint::none;
    return Errc::io_error;
  }

  // Step 4: seal the new root and advance the hardware freshness counter.
  commit_seq_ = new_seq;
  substrate_.machine().nv_counter_increment();
  if (const Status s = write_seal(meta_digest); !s.ok()) return s;

  // Step 5: publish the metadata and collect garbage.
  if (backing_.exists(meta_path())) (void)backing_.remove(meta_path());
  if (const Status s = backing_.rename(staged_meta_path(), meta_path());
      !s.ok())
    return s;
  for (const std::string& path : pending_deletes_)
    (void)backing_.remove(path);
  pending_deletes_.clear();
  for (auto& [name, file] : files_)
    for (BlockMeta& block : file.blocks) block.dirty = false;
  return Status::success();
}

Result<std::unique_ptr<Vpfs>> Vpfs::format(
    legacy::LegacyFilesystem& backing,
    substrate::IsolationSubstrate& substrate, substrate::DomainId domain,
    const std::string& prefix, BytesView key_seed) {
  auto fs = std::unique_ptr<Vpfs>(new Vpfs(backing, substrate, domain, prefix));
  fs->raw_keys_ = crypto::hkdf(to_bytes("vpfs.format.v1"), key_seed,
                               to_bytes("enc+mac"), 48);
  fs->keys_.emplace(fs->raw_keys_);
  if (const Status s = fs->sync(); !s.ok()) return s.error();
  return fs;
}

Result<std::unique_ptr<Vpfs>> Vpfs::mount(
    legacy::LegacyFilesystem& backing,
    substrate::IsolationSubstrate& substrate, substrate::DomainId domain,
    const std::string& prefix) {
  auto fs = std::unique_ptr<Vpfs>(new Vpfs(backing, substrate, domain, prefix));

  // 1. Unseal the root state — only the same code identity on the same
  //    device gets past this line.
  const auto seal_size = backing.size(fs->seal_path());
  if (!seal_size) return Errc::io_error;
  auto sealed = backing.read(fs->seal_path(), 0, *seal_size);
  if (!sealed) return Errc::io_error;
  auto state = substrate.unseal(domain, *sealed);
  if (!state) return Errc::tamper_detected;
  wire::ByteReader r(*state);
  auto raw_keys = r.bytes(48);
  auto digest = r.bytes(crypto::Digest{}.size());
  auto commit_seq = r.u64();
  auto sealed_nv = r.u64();
  if (!raw_keys || !digest || !commit_seq || !sealed_nv || !r.finish().ok())
    return Errc::tamper_detected;

  fs->raw_keys_.assign(raw_keys->begin(), raw_keys->end());
  fs->keys_.emplace(fs->raw_keys_);
  crypto::Digest sealed_digest;
  std::copy(digest->begin(), digest->end(), sealed_digest.begin());
  fs->commit_seq_ = *commit_seq;

  // 2. Freshness: an attacker replaying an old (seal, data) snapshot cannot
  //    rewind the on-chip counter.
  if (*sealed_nv != substrate.machine().nv_counter())
    return Errc::tamper_detected;

  // 3. Locate the metadata matching the sealed digest; complete an
  //    interrupted commit when the staged copy is the sealed one.
  auto try_load = [&](const std::string& path) -> Status {
    const auto size = backing.size(path);
    if (!size) return Errc::io_error;
    auto blob = backing.read(path, 0, *size);
    if (!blob) return Errc::io_error;
    const crypto::Digest digest = crypto::Sha256::hash(*blob);
    if (!ct_equal(crypto::digest_view(digest),
                  crypto::digest_view(sealed_digest)))
      return Errc::tamper_detected;
    return fs->deserialize_meta(*blob);
  };

  if (try_load(fs->meta_path()).ok()) return fs;
  if (backing.exists(fs->staged_meta_path()) &&
      try_load(fs->staged_meta_path()).ok()) {
    // Crash happened between seal write and publish: roll forward.
    if (backing.exists(fs->meta_path())) (void)backing.remove(fs->meta_path());
    if (const Status s =
            backing.rename(fs->staged_meta_path(), fs->meta_path());
        !s.ok())
      return s.error();
    return fs;
  }
  return Errc::tamper_detected;
}

}  // namespace lateral::vpfs
