#include "circuit/mna.hpp"

#include <bit>
#include <stdexcept>

namespace rfabm::circuit {

namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Flat slots are 32-bit: dimension^2 + dimension must fit.
constexpr std::size_t kMaxPlannedDimension = 65535;

}  // namespace

bool MnaSystem::same_key(const PlanKey& key) const {
    return key.circuit == key_.circuit && key.stamp_version == key_.stamp_version &&
           key.nodes == key_.nodes && key.branches == key_.branches && key.mode == key_.mode &&
           key.method == key_.method && same_bits(key.dt, key_.dt) &&
           same_bits(key.gmin, key_.gmin) && same_bits(key.source_scale, key_.source_scale) &&
           same_bits(key.extra_diag_gmin, key_.extra_diag_gmin);
}

void MnaSystem::rekey(const PlanKey& key) {
    if (!planned_ || key.nodes != key_.nodes || key.branches != key_.branches) {
        if (key.nodes - 1 + key.branches > kMaxPlannedDimension) {
            throw std::length_error("MnaSystem::assemble: too many unknowns for a plan");
        }
        MnaBase::reset(key.nodes, key.branches);
        compiled_ = false;
    }
    key_ = key;
    planned_ = false;
    for (Group& g : groups_) g.devices.clear();
    for (std::size_t d = 0; d < roles_.size(); ++d) {
        group(roles_[d]).devices.push_back(static_cast<std::uint32_t>(d));
    }
    if (roles_ != plan_roles_) compiled_ = false;
}

void MnaSystem::capture_extra_diagonal() {
    if (key_.extra_diag_gmin > 0.0) {
        start_capture(group(StampRole::kConstant).slots, values_);
        for (NodeId n = 1; n < static_cast<NodeId>(key_.nodes); ++n) {
            add_node_diagonal(n, key_.extra_diag_gmin);
        }
        stop_capture();
        set_bases();
    }
}

void MnaSystem::set_bases() {
    Group& step = group(StampRole::kPerStep);
    step.base = static_cast<std::uint32_t>(group(StampRole::kConstant).slots.size());
    group(StampRole::kPerIteration).base =
        step.base + static_cast<std::uint32_t>(step.slots.size());
}

bool MnaSystem::structure_kept(bool rekeyed, bool step_start) const {
    const auto kept = [this](StampRole role) {
        const Group& g = groups_[static_cast<std::size_t>(role)];
        return g.slots == g.plan_slots && g.ends == g.plan_ends;
    };
    if (!kept(StampRole::kPerIteration)) return false;
    if ((rekeyed || step_start) && !kept(StampRole::kPerStep)) return false;
    return !rekeyed || kept(StampRole::kConstant);
}

void MnaSystem::finish_assembly(bool rekeyed, bool step_start) {
    if (!compiled_ || !structure_kept(rekeyed, step_start)) {
        compile();
        ++compiles_;
        unchanged_ = false;
    } else if (rekeyed) {
        sum_all();
        ++updates_;
        unchanged_ = false;
    } else {
        if (step_start) sum_step();
        sum_iteration();
    }
    planned_ = true;
}

void MnaSystem::compile() {
    MnaBase::reset(key_.nodes, key_.branches);
    const std::size_t n = dimension();
    const std::size_t nn = n * n;

    // The full stamp's terms in device order: each device's captured terms,
    // then the extra diagonal, captured after the constant devices' terms.
    terms_.clear();
    const auto emit = [this](StampRole role, std::uint32_t begin, std::uint32_t end) {
        const Group& g = group(role);
        for (std::uint32_t i = begin; i < end; ++i) terms_.push_back({g.slots[i], g.base + i, role});
    };
    std::uint32_t next[3] = {0, 0, 0};
    for (const StampRole role : roles_) {
        const Group& g = group(role);
        std::uint32_t& k = next[static_cast<std::size_t>(role)];
        emit(role, k == 0 ? 0 : g.ends[k - 1], g.ends[k]);
        ++k;
    }
    const Group& constant = group(StampRole::kConstant);
    emit(StampRole::kConstant, constant.ends.empty() ? 0 : constant.ends.back(),
         static_cast<std::uint32_t>(constant.slots.size()));

    // One program per written slot, ranked by the most often re-stamped
    // role that writes it; per-iteration writers put a matrix entry in
    // nonlinear(), the others in touched().
    struct Written {
        std::uint32_t slot;
        std::uint32_t terms;
        std::uint8_t roles;  ///< bit per StampRole
    };
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    constexpr std::uint8_t kIterationBit = 1u << static_cast<unsigned>(StampRole::kPerIteration);
    constexpr std::uint8_t kStepBit = 1u << static_cast<unsigned>(StampRole::kPerStep);
    std::vector<Written> written;
    slot_program_.assign(nn + n, kNone);
    for (const Term& t : terms_) {
        std::uint32_t& w = slot_program_[t.slot];
        if (w == kNone) {
            w = static_cast<std::uint32_t>(written.size());
            written.push_back({t.slot, 0, 0});
        }
        ++written[w].terms;
        written[w].roles |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(t.role));
    }
    const auto rank = [&](std::uint8_t roles) {
        return (roles & kIterationBit) != 0 ? 2 : (roles & kStepBit) != 0 ? 1 : 0;
    };
    programs_.clear();
    programs_.reserve(written.size());
    std::uint32_t begin = 0;
    for (int r = 0; r < 3; ++r) {
        if (r == 1) first_step_ = programs_.size();
        if (r == 2) first_iteration_ = programs_.size();
        for (const Written& w : written) {
            if (rank(w.roles) != r) continue;
            slot_program_[w.slot] = static_cast<std::uint32_t>(programs_.size());
            programs_.push_back({w.slot, begin, begin + w.terms, begin + w.terms});
            begin += w.terms;
            if (w.slot >= nn) continue;
            if ((w.roles & ~kIterationBit) != 0) touched_pattern().mark(w.slot / n, w.slot % n);
            if ((w.roles & kIterationBit) != 0) nonlinear_pattern().mark(w.slot / n, w.slot % n);
        }
    }

    // Each slot's value indices in device order; split at its first
    // per-iteration term.
    order_.resize(terms_.size());
    std::vector<std::uint32_t> filled(programs_.size(), 0);
    for (const Term& t : terms_) {
        const std::uint32_t p = slot_program_[t.slot];
        SlotProgram& program = programs_[p];
        const std::uint32_t at = program.begin + filled[p]++;
        order_[at] = t.value;
        if (t.role == StampRole::kPerIteration && program.split == program.end) program.split = at;
    }
    base_.resize(programs_.size() - first_iteration_);

    for (Group& g : groups_) {
        g.plan_slots = g.slots;
        g.plan_ends = g.ends;
    }
    plan_roles_ = roles_;
    compiled_ = true;
    sum_all();
}

void MnaSystem::sum_all() {
    const std::size_t nn = dimension() * dimension();
    double* const a = matrix().data();
    double* const b = rhs().data();
    const double* const v = values_.data();
    const std::uint32_t* const order = order_.data();
    for (std::size_t i = 0; i < programs_.size(); ++i) {
        const SlotProgram& p = programs_[i];
        double acc = 0.0;
        for (std::uint32_t k = p.begin; k < p.split; ++k) acc += v[order[k]];
        if (i >= first_iteration_) base_[i - first_iteration_] = acc;
        for (std::uint32_t k = p.split; k < p.end; ++k) acc += v[order[k]];
        if (p.slot < nn) {
            a[p.slot] = acc;
        } else {
            b[p.slot - nn] = acc;
        }
    }
}

void MnaSystem::sum_step() {
    const std::size_t nn = dimension() * dimension();
    double* const a = matrix().data();
    double* const b = rhs().data();
    const double* const v = values_.data();
    const std::uint32_t* const order = order_.data();
    for (std::size_t i = first_step_; i < first_iteration_; ++i) {
        const SlotProgram& p = programs_[i];
        double acc = 0.0;
        for (std::uint32_t k = p.begin; k < p.end; ++k) acc += v[order[k]];
        if (p.slot < nn) {
            if (!same_bits(a[p.slot], acc)) unchanged_ = false;
            a[p.slot] = acc;
        } else {
            b[p.slot - nn] = acc;
        }
    }
    for (std::size_t i = first_iteration_; i < programs_.size(); ++i) {
        const SlotProgram& p = programs_[i];
        double acc = 0.0;
        for (std::uint32_t k = p.begin; k < p.split; ++k) acc += v[order[k]];
        base_[i - first_iteration_] = acc;
    }
}

void MnaSystem::sum_iteration() {
    const std::size_t nn = dimension() * dimension();
    double* const a = matrix().data();
    double* const b = rhs().data();
    const double* const v = values_.data();
    const std::uint32_t* const order = order_.data();
    for (std::size_t i = first_iteration_; i < programs_.size(); ++i) {
        const SlotProgram& p = programs_[i];
        double acc = base_[i - first_iteration_];
        for (std::uint32_t k = p.split; k < p.end; ++k) acc += v[order[k]];
        if (p.slot < nn) {
            a[p.slot] = acc;
        } else {
            b[p.slot - nn] = acc;
        }
    }
}

void MnaSystem::drop_plan() {
    planned_ = false;
    compiled_ = false;
    unchanged_ = false;
}

}  // namespace rfabm::circuit
