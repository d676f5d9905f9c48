// Crash-safe checkpoint container. A checkpoint file wraps an opaque
// state blob (the hunt or lot payload) in the sealed envelope of
// util/binio:
//
//   magic "CICHKPT2" | fingerprint:string | state blob | checksum64
//
// The checksum covers the fingerprint as well as the blob. The
// fingerprint ties a checkpoint to the run configuration that wrote it
// (parameter name, seed, fault profile, ...): resuming with a different
// configuration is refused instead of silently producing a mixed-state
// run. Decoding NEVER throws and never partially applies — any
// truncation, bit flip, or mismatch yields "no checkpoint" and the
// caller starts cold. Version-1 ("CICHKPT1") files fail the magic check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace cichar::core {

inline constexpr std::string_view kCheckpointMagic = "CICHKPT2";

/// Wraps `payload` into the envelope.
[[nodiscard]] std::string encode_checkpoint(std::string_view fingerprint,
                                            std::string_view payload);

/// Unwraps `contents`. Returns false — leaving `payload_out` untouched —
/// when the magic, fingerprint, or checksum does not match or the
/// envelope is truncated/corrupt. Never throws.
[[nodiscard]] bool decode_checkpoint(std::string_view contents,
                                     std::string_view expected_fingerprint,
                                     std::string& payload_out);

/// Reads the fingerprint out of a sealed checkpoint without matching it
/// against a configuration (`cichar merge` groups shard blobs by the lot
/// configuration that wrote them before it insists they all agree).
/// nullopt when the envelope is not intact. Never throws.
[[nodiscard]] std::optional<std::string> peek_checkpoint_fingerprint(
    std::string_view contents);

/// encode + atomic write (temp file + rename): a crash mid-save leaves
/// the previous checkpoint intact. Returns success.
[[nodiscard]] bool write_checkpoint_file(const std::string& path,
                                         std::string_view fingerprint,
                                         std::string_view payload);

/// The fingerprint a `cichar hunt` checkpoint is written and resumed
/// under: everything that shapes the hunt's streams, and the random test
/// generator's expansion (testgen::kExpansionTag).
[[nodiscard]] std::string hunt_fingerprint(std::uint64_t seed,
                                           std::string_view coding,
                                           std::size_t generations,
                                           std::size_t populations, bool cache,
                                           std::string_view faults, bool policy);

/// Reads and unwraps a checkpoint file; nullopt when the file is missing
/// or fails decode_checkpoint. Never throws.
[[nodiscard]] std::optional<std::string> read_checkpoint_file(
    const std::string& path, std::string_view fingerprint);

}  // namespace cichar::core
