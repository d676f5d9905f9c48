#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "testgen/random_gen.hpp"
#include "util/binio.hpp"

namespace cichar::core {
namespace {

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
    const std::string payload = "hunt state \0 with embedded nul";
    const std::string blob = encode_checkpoint("hunt:dvt:seed=7", payload);
    std::string out;
    ASSERT_TRUE(decode_checkpoint(blob, "hunt:dvt:seed=7", out));
    EXPECT_EQ(out, payload);
}

// A hunt checkpoint written before the fixed-draw-schedule generator
// (its fingerprint had no expansion tag) holds populations measured on
// other patterns: --resume refuses it.
TEST(CheckpointTest, HuntFingerprintRefusesThePreviousGenerator) {
    const std::string current =
        hunt_fingerprint(7, "fuzzy", 40, 4, true, "off", false);
    EXPECT_NE(current.find(testgen::kExpansionTag), std::string::npos);
    const std::string legacy =
        "hunt:seed=7:coding=fuzzy:generations=40:populations=4:cache=1:"
        "faults=off:policy=0";
    const std::string blob = encode_checkpoint(legacy, "state");
    std::string out;
    EXPECT_FALSE(decode_checkpoint(blob, current, out));
    ASSERT_TRUE(decode_checkpoint(encode_checkpoint(current, "state"), current, out));
    EXPECT_EQ(out, "state");
}

TEST(CheckpointTest, RejectsWrongFingerprint) {
    const std::string blob = encode_checkpoint("hunt:dvt:seed=7", "payload");
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(blob, "hunt:dvt:seed=8", out));
    EXPECT_EQ(out, "untouched");
}

// The decoder goes through the sealed envelope (the exhaustive prefix
// and bit-flip sweeps live in BinioSealTest): a flipped state byte, a
// cut byte, or an appended byte is refused, never a wrong payload.
TEST(CheckpointTest, RejectsFlippedCutOrPaddedEnvelope) {
    const std::string blob =
        encode_checkpoint("fp", std::string(256, 'x') + "payload tail");
    std::string flipped = blob;
    flipped[blob.size() - 20] ^= 0x20;
    for (const std::string& corrupt :
         {flipped, blob.substr(0, blob.size() - 1), blob + '\0'}) {
        std::string out = "untouched";
        EXPECT_FALSE(decode_checkpoint(corrupt, "fp", out));
        EXPECT_EQ(out, "untouched");
        EXPECT_FALSE(peek_checkpoint_fingerprint(corrupt).has_value());
    }
}

// The checksum covers the fingerprint: rewriting it in place (here
// seed 7 -> 6) no longer yields a checkpoint of another configuration.
TEST(CheckpointTest, RejectsAlteredFingerprint) {
    std::string blob = encode_checkpoint("hunt:seed=7", "state");
    ASSERT_EQ(peek_checkpoint_fingerprint(blob), "hunt:seed=7");
    const std::size_t seven = blob.find("seed=7") + 5;
    ASSERT_LT(seven, blob.size());
    blob[seven] = '6';
    std::string out = "untouched";
    EXPECT_FALSE(decode_checkpoint(blob, "hunt:seed=6", out));
    EXPECT_FALSE(decode_checkpoint(blob, "hunt:seed=7", out));
    EXPECT_EQ(out, "untouched");
    EXPECT_FALSE(peek_checkpoint_fingerprint(blob).has_value());
}

// A version-1 file (checksum over the payload only) fails the magic
// check: the caller starts cold.
TEST(CheckpointTest, RejectsVersionOneEnvelope) {
    std::string v1 = "CICHKPT1";
    util::put_string(v1, "fp");
    util::put_string(v1, "payload");
    util::put_u64(v1, util::checksum64("payload"));
    std::string out;
    EXPECT_FALSE(decode_checkpoint(v1, "fp", out));
    EXPECT_FALSE(peek_checkpoint_fingerprint(v1).has_value());
}

TEST(CheckpointTest, FileRoundTripAndMissingFile) {
    const std::string path = "checkpoint_test_roundtrip.ckpt";
    ASSERT_TRUE(write_checkpoint_file(path, "fp", "payload"));
    const auto loaded = read_checkpoint_file(path, "fp");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, "payload");
    EXPECT_FALSE(read_checkpoint_file(path, "other-fp").has_value());
    std::remove(path.c_str());
    EXPECT_FALSE(read_checkpoint_file(path, "fp").has_value());
}

}  // namespace
}  // namespace cichar::core
