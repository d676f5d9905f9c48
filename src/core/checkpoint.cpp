#include "core/checkpoint.hpp"

#include <exception>
#include <sstream>
#include <utility>

#include "testgen/random_gen.hpp"
#include "util/binio.hpp"
#include "util/crash_point.hpp"

namespace cichar::core {
namespace {

/// Splits an intact envelope into fingerprint and state blob.
std::optional<std::pair<std::string, std::string_view>> open_checkpoint(
    std::string_view contents) {
    const std::optional<std::string_view> sealed =
        util::unseal(kCheckpointMagic, contents);
    if (!sealed) return std::nullopt;
    try {
        util::ByteReader in(*sealed);
        std::string fingerprint = in.get_string();
        return std::pair{std::move(fingerprint), sealed->substr(in.position())};
    } catch (const std::exception&) {
        return std::nullopt;  // fingerprint length runs past the payload
    }
}

}  // namespace

std::string encode_checkpoint(std::string_view fingerprint,
                              std::string_view payload) {
    std::string sealed;
    sealed.reserve(fingerprint.size() + payload.size() + 8);
    util::put_string(sealed, fingerprint);
    sealed.append(payload);
    return util::seal(kCheckpointMagic, sealed);
}

bool decode_checkpoint(std::string_view contents,
                       std::string_view expected_fingerprint,
                       std::string& payload_out) {
    const auto opened = open_checkpoint(contents);
    if (!opened || opened->first != expected_fingerprint) return false;
    payload_out = opened->second;
    return true;
}

std::optional<std::string> peek_checkpoint_fingerprint(
    std::string_view contents) {
    auto opened = open_checkpoint(contents);
    if (!opened) return std::nullopt;
    return std::move(opened->first);
}

bool write_checkpoint_file(const std::string& path,
                           std::string_view fingerprint,
                           std::string_view payload) {
    CICHAR_CRASH_POINT("core.checkpoint.pre_write");
    const bool ok = util::atomic_write_file(
        path, encode_checkpoint(fingerprint, payload));
    CICHAR_CRASH_POINT("core.checkpoint.post_write");
    return ok;
}

std::optional<std::string> read_checkpoint_file(const std::string& path,
                                                std::string_view fingerprint) {
    const std::optional<std::string> contents = util::read_file(path);
    if (!contents.has_value()) return std::nullopt;
    std::string payload;
    if (!decode_checkpoint(*contents, fingerprint, payload)) {
        return std::nullopt;
    }
    return payload;
}

std::string hunt_fingerprint(std::uint64_t seed, std::string_view coding,
                             std::size_t generations, std::size_t populations,
                             bool cache, std::string_view faults, bool policy) {
    std::ostringstream fp;
    fp << "hunt:gen=" << testgen::kExpansionTag << ":seed=" << seed
       << ":coding=" << coding << ":generations=" << generations
       << ":populations=" << populations << ":cache=" << (cache ? 1 : 0)
       << ":faults=" << faults << ":policy=" << (policy ? 1 : 0);
    return fp.str();
}

}  // namespace cichar::core
