#include "ate/search_until_trip.hpp"

#include <cmath>

#include "ate/search_task.hpp"

namespace cichar::ate {

double SearchUntilTrip::offset_after(const Options& options,
                                     std::size_t iterations) noexcept {
    const auto it = static_cast<double>(iterations);
    switch (options.growth) {
        case SearchFactorGrowth::kLinear:
            return options.search_factor * it;
        case SearchFactorGrowth::kTriangular:
            return options.search_factor * it * (it + 1.0) * 0.5;
    }
    return options.search_factor * it;
}

SearchResult SearchUntilTrip::find(const Oracle& oracle,
                                   const Parameter& parameter) const {
    // A thin loop over the resumable task, the one implementation of
    // the algorithm.
    SearchUntilTripTask task(options_, rtp_, parameter);
    return run_search_task(task, oracle);
}

ReferenceSearch make_reference_search(const Oracle& first_oracle,
                                      const Parameter& parameter,
                                      const TripPointSearch& initial,
                                      SearchUntilTrip::Options options) {
    SearchResult first = initial.find(first_oracle, parameter);
    double rtp = first.trip_point;
    if (!first.found || std::isnan(rtp)) {
        // Degenerate first test: fall back to mid-range so followers can
        // still hunt outward in both directions.
        rtp = 0.5 * (parameter.search_start + parameter.search_end);
    }
    return ReferenceSearch{std::move(first),
                           SearchUntilTrip(options, parameter.quantize(rtp))};
}

}  // namespace cichar::ate
