#include "ate/measurement_log.hpp"

#include <sstream>

namespace cichar::ate {

void MeasurementLog::set_phase(std::string phase) {
    phase_ = std::move(phase);
}

void MeasurementLog::record(std::uint64_t cycles, double seconds) {
    by_phase_[phase_].add(cycles, seconds);
    total_.add(cycles, seconds);
}

PhaseCounters MeasurementLog::phase_counters(const std::string& phase) const {
    const auto it = by_phase_.find(phase);
    return it != by_phase_.end() ? it->second : PhaseCounters{};
}

std::vector<std::string> MeasurementLog::phases() const {
    std::vector<std::string> names;
    names.reserve(by_phase_.size());
    for (const auto& [name, counters] : by_phase_) names.push_back(name);
    return names;
}

void MeasurementLog::merge(const MeasurementLog& other) {
    for (const auto& [name, counters] : other.by_phase_) {
        by_phase_[name].merge(counters);
    }
    total_.merge(other.total_);
}

void MeasurementLog::reset() {
    by_phase_.clear();
    total_ = PhaseCounters{};
}

namespace {

void save_counters(std::string& out, const PhaseCounters& counters) {
    util::put_u64(out, counters.applications);
    util::put_u64(out, counters.vector_cycles);
    util::put_double(out, counters.tester_seconds);
}

PhaseCounters load_counters(util::ByteReader& in) {
    PhaseCounters counters;
    counters.applications = in.get_u64();
    counters.vector_cycles = in.get_u64();
    counters.tester_seconds = in.get_double();
    return counters;
}

}  // namespace

void MeasurementLog::save(std::string& out) const {
    util::put_string(out, phase_);
    util::put_u64(out, by_phase_.size());
    for (const auto& [name, counters] : by_phase_) {
        util::put_string(out, name);
        save_counters(out, counters);
    }
    save_counters(out, total_);
}

void MeasurementLog::load(util::ByteReader& in) {
    MeasurementLog loaded;
    loaded.phase_ = in.get_string();
    // Each phase is at least a name length plus its three counters.
    const std::uint64_t count = in.get_count(8 + 3 * 8);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string name = in.get_string();
        loaded.by_phase_[std::move(name)] = load_counters(in);
    }
    loaded.total_ = load_counters(in);
    *this = std::move(loaded);
}

std::string MeasurementLog::report() const {
    std::ostringstream out;
    out << "tester activity by phase:\n";
    for (const auto& [name, c] : by_phase_) {
        out << "  " << name << ": " << c.applications << " measurements, "
            << c.vector_cycles << " cycles, " << c.tester_seconds << " s\n";
    }
    out << "  TOTAL: " << total_.applications << " measurements, "
        << total_.vector_cycles << " cycles, " << total_.tester_seconds
        << " s\n";
    return out.str();
}

}  // namespace cichar::ate
