#include "dist/shard_manifest.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/binio.hpp"

namespace cichar::dist {
namespace {

ShardManifest sample_manifest() {
    ShardManifest manifest =
        ShardManifest::partition("lot:seed=77", 8, 3, "work");
    manifest.shards[0].state = ShardState::kDone;
    manifest.shards[0].attempts = 1;
    manifest.shards[1].state = ShardState::kRunning;
    manifest.shards[1].attempts = 2;
    return manifest;
}

/// Seals a raw payload in the manifest envelope so tests can probe
/// decode() with hand-crafted payloads.
std::string envelope(const std::string& payload) {
    return util::seal(kShardManifestMagic, payload);
}

TEST(ShardManifestTest, PartitionCoversEverySiteExactlyOnce) {
    for (const std::size_t sites : {1u, 7u, 8u, 9u, 16u}) {
        for (std::size_t shards = 1; shards <= std::min<std::size_t>(sites, 5);
             ++shards) {
            const ShardManifest manifest =
                ShardManifest::partition("fp", sites, shards, "wd");
            ASSERT_EQ(manifest.shards.size(), shards);
            EXPECT_EQ(manifest.sites, sites);
            std::size_t next = 0;
            for (std::size_t k = 0; k < shards; ++k) {
                const ShardEntry& shard = manifest.shards[k];
                EXPECT_EQ(shard.index, k);
                // Contiguous and gap-free: each shard starts where the
                // previous one ended.
                EXPECT_EQ(shard.site_begin, next);
                EXPECT_GT(shard.site_end, shard.site_begin);
                next = shard.site_end;
                // Balanced: sizes differ by at most one.
                EXPECT_GE(shard.site_count(), sites / shards);
                EXPECT_LE(shard.site_count(), sites / shards + 1);
                EXPECT_EQ(shard.state, ShardState::kPending);
                EXPECT_EQ(shard.checkpoint,
                          "wd/shard_" + std::to_string(k) + ".ckpt");
                EXPECT_EQ(shard.heartbeat,
                          "wd/shard_" + std::to_string(k) + ".hb");
            }
            EXPECT_EQ(next, sites);
        }
    }
}

TEST(ShardManifestTest, PartitionRejectsBadShardCounts) {
    EXPECT_THROW((void)ShardManifest::partition("fp", 4, 0, "wd"),
                 std::invalid_argument);
    EXPECT_THROW((void)ShardManifest::partition("fp", 4, 5, "wd"),
                 std::invalid_argument);
}

TEST(ShardManifestTest, RangeSpecMatchesWorkerFlag) {
    const ShardManifest manifest =
        ShardManifest::partition("fp", 8, 2, "wd");
    EXPECT_EQ(manifest.shards[0].range_spec(), "0:4");
    EXPECT_EQ(manifest.shards[1].range_spec(), "4:8");
}

TEST(ShardManifestTest, EncodeDecodeRoundTrip) {
    const ShardManifest manifest = sample_manifest();
    const std::optional<ShardManifest> decoded =
        ShardManifest::decode(manifest.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->lot_fingerprint, manifest.lot_fingerprint);
    EXPECT_EQ(decoded->sites, manifest.sites);
    ASSERT_EQ(decoded->shards.size(), manifest.shards.size());
    for (std::size_t k = 0; k < manifest.shards.size(); ++k) {
        EXPECT_EQ(decoded->shards[k].index, manifest.shards[k].index);
        EXPECT_EQ(decoded->shards[k].site_begin,
                  manifest.shards[k].site_begin);
        EXPECT_EQ(decoded->shards[k].site_end, manifest.shards[k].site_end);
        EXPECT_EQ(decoded->shards[k].checkpoint,
                  manifest.shards[k].checkpoint);
        EXPECT_EQ(decoded->shards[k].heartbeat,
                  manifest.shards[k].heartbeat);
        EXPECT_EQ(decoded->shards[k].attempts, manifest.shards[k].attempts);
        EXPECT_EQ(decoded->shards[k].state, manifest.shards[k].state);
    }
    // Byte-stable: identical state encodes identically.
    EXPECT_EQ(manifest.encode(), sample_manifest().encode());
}

// The decoder goes through the sealed envelope (the exhaustive prefix
// and bit-flip sweeps live in BinioSealTest): a wrong magic, a version-1
// manifest, a flipped payload byte, or a cut byte is refused.
TEST(ShardManifestTest, DecodeRejectsCorruptionAndTruncation) {
    const std::string encoded = sample_manifest().encode();
    EXPECT_TRUE(ShardManifest::decode(encoded).has_value());

    std::string wrong_magic = encoded;
    wrong_magic[0] = 'X';
    EXPECT_FALSE(ShardManifest::decode(wrong_magic).has_value());

    // CISHMAN1 carried an outer length prefix around the payload.
    std::string v1 = "CISHMAN1";
    const std::string payload(
        util::unseal(kShardManifestMagic, encoded).value());
    util::put_string(v1, payload);
    util::put_u64(v1, util::checksum64(payload));
    EXPECT_FALSE(ShardManifest::decode(v1).has_value());

    std::string flipped = encoded;
    flipped[encoded.size() / 2] ^= 0x20;
    EXPECT_FALSE(ShardManifest::decode(flipped).has_value());
    EXPECT_FALSE(ShardManifest::decode(encoded.substr(0, encoded.size() - 1))
                     .has_value());
}

TEST(ShardManifestTest, DecodeRejectsUnsupportedVersion) {
    std::string payload;
    util::put_u32(payload, kShardManifestVersion + 1);
    util::put_string(payload, "fp");
    util::put_u64(payload, 0);
    util::put_u64(payload, 0);
    EXPECT_FALSE(ShardManifest::decode(envelope(payload)).has_value());
}

TEST(ShardManifestTest, DecodeRejectsMalformedShards) {
    // Inverted range.
    ShardManifest inverted = sample_manifest();
    inverted.shards[1].site_begin = inverted.shards[1].site_end + 1;
    EXPECT_FALSE(ShardManifest::decode(inverted.encode()).has_value());

    // Range past the lot.
    ShardManifest oversized = sample_manifest();
    oversized.shards[2].site_end = oversized.sites + 4;
    EXPECT_FALSE(ShardManifest::decode(oversized.encode()).has_value());

    // Unknown state enum value (hand-crafted payload).
    std::string payload;
    util::put_u32(payload, kShardManifestVersion);
    util::put_string(payload, "fp");
    util::put_u64(payload, 4);
    util::put_u64(payload, 1);
    util::put_u64(payload, 0);  // index
    util::put_u64(payload, 0);  // begin
    util::put_u64(payload, 4);  // end
    util::put_string(payload, "a.ckpt");
    util::put_string(payload, "a.hb");
    util::put_u64(payload, 1);  // attempts
    util::put_u64(payload, 9);  // state: out of range
    EXPECT_FALSE(ShardManifest::decode(envelope(payload)).has_value());
}

// A forged shard count larger than the bytes left is refused before
// anything is reserved for it.
TEST(ShardManifestTest, DecodeRejectsForgedShardCount) {
    std::string payload;
    util::put_u32(payload, kShardManifestVersion);
    util::put_string(payload, "fp");
    util::put_u64(payload, 1ULL << 60);  // sites
    util::put_u64(payload, 1ULL << 40);  // shard count, no entries follow
    EXPECT_FALSE(ShardManifest::decode(envelope(payload)).has_value());
}

TEST(ShardManifestTest, SaveLoadRoundTrip) {
    const std::string path = testing::TempDir() + "manifest_rt.bin";
    const ShardManifest manifest = sample_manifest();
    ASSERT_TRUE(manifest.save(path));
    const std::optional<ShardManifest> loaded = ShardManifest::load(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->encode(), manifest.encode());
    EXPECT_FALSE(
        ShardManifest::load(path + ".does-not-exist").has_value());
}

TEST(ShardManifestTest, CompleteRequiresEveryShardDone) {
    ShardManifest manifest = ShardManifest::partition("fp", 4, 2, "wd");
    EXPECT_FALSE(manifest.complete());
    manifest.shards[0].state = ShardState::kDone;
    EXPECT_FALSE(manifest.complete());
    manifest.shards[1].state = ShardState::kDone;
    EXPECT_TRUE(manifest.complete());
}

// Appended garbage (a crashed writer double-appending, a filesystem
// replaying a stale tail) is corruption, not data.
TEST(ShardManifestFuzzTest, TrailingGarbageRejected) {
    const std::string encoded = sample_manifest().encode();
    EXPECT_FALSE(ShardManifest::decode(encoded + std::string(1, '\0'))
                     .has_value());
    EXPECT_FALSE(ShardManifest::decode(encoded + encoded).has_value());
}

TEST(ShardManifestTest, StateNamesAreStable) {
    EXPECT_STREQ(to_string(ShardState::kPending), "pending");
    EXPECT_STREQ(to_string(ShardState::kRunning), "running");
    EXPECT_STREQ(to_string(ShardState::kDone), "done");
    EXPECT_STREQ(to_string(ShardState::kFailed), "failed");
}

}  // namespace
}  // namespace cichar::dist
