#include "ate/parameter.hpp"

#include <algorithm>
#include <cmath>

namespace cichar::ate {

double Parameter::characterization_range() const noexcept {
    return std::abs(search_end - search_start);
}

double Parameter::pass_side() const noexcept {
    return fail_high ? std::min(search_start, search_end)
                     : std::max(search_start, search_end);
}

double Parameter::fail_side() const noexcept {
    return fail_high ? std::max(search_start, search_end)
                     : std::min(search_start, search_end);
}

double Parameter::toward_fail() const noexcept {
    return fail_high ? 1.0 : -1.0;
}

double Parameter::quantize(double setting) const noexcept {
    if (resolution <= 0.0) return setting;
    return std::round(setting / resolution) * resolution;
}

double Parameter::clamp(double setting) const noexcept {
    const double lo = std::min(search_start, search_end);
    const double hi = std::max(search_start, search_end);
    return std::clamp(setting, lo, hi);
}

// Designated initializers construct the name and unit strings in place:
// assigning string literals to default-constructed members trips GCC 12's
// -Wrestrict false positive inside the inlined std::string copy.
Parameter Parameter::data_valid_time() {
    return Parameter{.name = "T_DQ",
                     .unit = "ns",
                     .kind = device::ParameterKind::kDataValidTime,
                     .spec = 20.0,
                     .spec_type = SpecType::kMinLimit,
                     // large strobe settings exceed the valid window
                     .fail_high = true,
                     .search_start = 15.0,
                     .search_end = 45.0,
                     .resolution = 0.1};
}

Parameter Parameter::max_frequency() {
    return Parameter{.name = "Fmax",
                     .unit = "MHz",
                     .kind = device::ParameterKind::kMaxFrequency,
                     .spec = 100.0,
                     .spec_type = SpecType::kMinLimit,
                     .fail_high = true,
                     .search_start = 60.0,
                     .search_end = 160.0,
                     .resolution = 0.5};
}

Parameter Parameter::min_vdd() {
    return Parameter{.name = "Vmin",
                     .unit = "V",
                     .kind = device::ParameterKind::kMinVdd,
                     .spec = 1.60,
                     .spec_type = SpecType::kMaxLimit,
                     // low supply fails; search downward from 2.2 V
                     .fail_high = false,
                     .search_start = 2.2,
                     .search_end = 1.0,
                     .resolution = 0.005};
}

}  // namespace cichar::ate
