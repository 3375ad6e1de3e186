// Per-iteration audit of the assembly plan against stamp_devices.
//
// An AssemblyAudit is added last to the circuit under test.  It is a
// per-iteration device that stamps nothing, so every Newton iteration calls
// it exactly once, after every other per-iteration device and before the
// plan writes the iteration's system.  At that point the system still holds
// the previous iteration's assembly, which the audit compares, bit for bit
// (matrix, right-hand side, touched(), nonlinear()), with what stamp_devices
// gave on a fresh system for that iteration.
//
// stamp() advances MOSFET limiting state, so the reference cannot re-stamp
// the audited devices.  It stamps a twin circuit instead: built identically,
// never solved, driven in lockstep.  The twin's devices receive the same
// stamp (once per iteration, at the same iterate), init_state and
// accept_step calls; switch states, source waveforms, bridge arming and
// resistor nominals are copied over before every reference stamp.  Process
// corners are not copied: apply them to both circuits.
//
// A SolveStartMark, a per-step device, tells the audit which iteration
// starts a Newton solve.  In the others the iterate is the previous
// iteration's solution, which the audit also checks against the dense LU of
// its reference system.
#pragma once

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/devices/defects.hpp"
#include "circuit/devices/passive.hpp"
#include "circuit/devices/sources.hpp"
#include "circuit/devices/switch_device.hpp"
#include "circuit/matrix.hpp"
#include "circuit/newton.hpp"

namespace rfabm::test {

class AssemblyAudit : public circuit::Device {
  public:
    /// @p audited is the circuit this device is added to; @p twin is built
    /// like it, without the audit, and is never solved.
    AssemblyAudit(std::string name, circuit::Circuit& audited, circuit::Circuit& twin)
        : Device(std::move(name)), audited_(audited), twin_(twin) {}

    bool is_nonlinear() const override { return true; }

    void stamp(circuit::MnaSystem& sys, const circuit::StampContext& ctx) override {
        const bool same_system = pending_ && &sys == pending_sys_ &&
                                 sys.lu().solves() == pending_solves_ + 1;
        if (pending_) {
            if (same_system) {
                compare_assembly(sys);
            } else {
                ++unchecked_;
            }
            if (!solve_start_) {
                compare_solution(*ctx.x);
                if (sys.plan_compiles() > last_compiles_ && !last_solve_start_) {
                    ++mid_solve_compiles_;
                }
            }
        }
        last_compiles_ = sys.plan_compiles();
        last_updates_ = sys.plan_updates();
        last_solve_start_ = solve_start_;
        solve_start_ = false;

        mirror();
        circuit::StampContext twin_ctx = ctx;
        bool limited = false;
        twin_ctx.limited = &limited;
        twin_.finalize();
        reference_.reset(twin_.num_nodes(), twin_.num_branches());
        circuit::stamp_devices(twin_, reference_, twin_ctx);
        if (extra_diag_gmin_ > 0.0) {
            for (circuit::NodeId n = 1; n < static_cast<circuit::NodeId>(twin_.num_nodes()); ++n) {
                reference_.add_node_diagonal(n, extra_diag_gmin_);
            }
        }
        pending_ = true;
        pending_sys_ = &sys;
        pending_solves_ = sys.lu().solves();
    }

    void init_state(const circuit::Solution& op) override {
        // The operating point's last iteration, in the circuit's DC system.
        if (pending_) flush(*pending_sys_);
        for (const auto& dev : twin_.devices()) dev->init_state(op);
    }

    void accept_step(const circuit::Solution& x, const circuit::StampContext& ctx) override {
        if (pending_) flush(*pending_sys_);
        for (const auto& dev : twin_.devices()) dev->accept_step(x, ctx);
    }

    /// Compare the last iteration's assembly now, while @p sys is alive;
    /// call after a direct newton_iterate.
    void flush(const circuit::MnaSystem& sys) {
        if (!pending_) return;
        if (&sys == pending_sys_ && sys.lu().solves() == pending_solves_ + 1) {
            compare_assembly(sys);
        } else {
            ++unchecked_;
        }
        pending_ = false;
    }

    /// The extra_diag_gmin of the Newton solves that follow.
    void set_extra_diag_gmin(double g) { extra_diag_gmin_ = g; }
    void mark_solve_start() { solve_start_ = true; }

    int assemblies_checked() const { return assemblies_checked_; }
    int solutions_checked() const { return solutions_checked_; }
    int unchecked() const { return unchecked_; }
    /// Plan compiles that the fallback made in a Newton solve's later
    /// iterations (a per-iteration device changed the entries it writes).
    int mid_solve_compiles() const { return mid_solve_compiles_; }
    /// The audited system's plan updates, as of the last iteration.
    std::uint64_t plan_updates() const { return last_updates_; }
    int mismatches() const { return mismatches_; }
    const std::string& first_mismatch() const { return first_mismatch_; }

  private:
    void fail(const std::string& what) {
        if (mismatches_++ == 0) first_mismatch_ = what;
    }

    void compare_assembly(const circuit::MnaSystem& sys) {
        ++assemblies_checked_;
        const std::size_t n = reference_.dimension();
        std::ostringstream where;
        where << "assembly " << assemblies_checked_ << ": ";
        if (sys.dimension() != n) return fail(where.str() + "dimension");
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) {
                if (std::memcmp(&sys.matrix()(r, c), &reference_.matrix()(r, c), sizeof(double)) !=
                    0) {
                    where << "matrix(" << r << ", " << c << ") planned " << sys.matrix()(r, c)
                          << ", stamped " << reference_.matrix()(r, c);
                    return fail(where.str());
                }
                if (sys.touched().test(r, c) != reference_.touched().test(r, c)) {
                    where << "touched(" << r << ", " << c << ")";
                    return fail(where.str());
                }
                if (sys.nonlinear().test(r, c) != reference_.nonlinear().test(r, c)) {
                    where << "nonlinear(" << r << ", " << c << ")";
                    return fail(where.str());
                }
            }
            if (std::memcmp(&sys.rhs()[r], &reference_.rhs()[r], sizeof(double)) != 0) {
                where << "rhs[" << r << "] planned " << sys.rhs()[r] << ", stamped "
                      << reference_.rhs()[r];
                return fail(where.str());
            }
        }
    }

    void compare_solution(const circuit::Solution& x) {
        circuit::DenseMatrix<double> a = reference_.matrix();
        std::vector<double> ref = reference_.rhs();
        try {
            circuit::lu_solve_in_place(a, ref);
        } catch (const circuit::SingularMatrixError&) {
            return;
        }
        ++solutions_checked_;
        if (ref.size() != x.size() ||
            std::memcmp(ref.data(), x.raw().data(), ref.size() * sizeof(double)) != 0) {
            fail("solution " + std::to_string(solutions_checked_) +
                 " differs from the dense LU of the stamped system");
        }
    }

    /// Copy the state the audited circuit's controllers change between
    /// steps onto the twin, device by device, paired by name.
    void mirror() {
        if (pairs_.size() != twin_.devices().size()) {
            pairs_.clear();
            for (const auto& dev : twin_.devices()) {
                pairs_.emplace_back(audited_.find_device(dev->name()), dev.get());
            }
        }
        for (const auto& [from, to] : pairs_) {
            if (from == nullptr) continue;
            if (auto* sw = dynamic_cast<circuit::Switch*>(from)) {
                auto* other = static_cast<circuit::Switch*>(to);
                other->set_closed(sw->closed());
                if (other->fault() != sw->fault()) other->set_fault(sw->fault());
            } else if (auto* v = dynamic_cast<circuit::VSource*>(from)) {
                static_cast<circuit::VSource*>(to)->set_waveform(v->waveform());
            } else if (auto* bridge = dynamic_cast<circuit::BridgeDefect*>(from)) {
                auto* other = static_cast<circuit::BridgeDefect*>(to);
                if (bridge->armed()) {
                    other->arm();
                } else {
                    other->disarm();
                }
            } else if (auto* r = dynamic_cast<circuit::Resistor*>(from)) {
                auto* other = static_cast<circuit::Resistor*>(to);
                if (other->nominal() != r->nominal()) other->set_nominal(r->nominal());
            }
        }
    }

    circuit::Circuit& audited_;
    circuit::Circuit& twin_;
    std::vector<std::pair<circuit::Device*, circuit::Device*>> pairs_;
    circuit::MnaSystem reference_;
    double extra_diag_gmin_ = 0.0;
    bool pending_ = false;
    const circuit::MnaSystem* pending_sys_ = nullptr;
    std::uint64_t pending_solves_ = 0;
    bool solve_start_ = false;
    bool last_solve_start_ = false;
    std::uint64_t last_compiles_ = 0;
    std::uint64_t last_updates_ = 0;
    int assemblies_checked_ = 0;
    int solutions_checked_ = 0;
    int unchecked_ = 0;
    int mid_solve_compiles_ = 0;
    int mismatches_ = 0;
    std::string first_mismatch_;
};

/// Per-step device that stamps nothing and tells @p audit that a Newton
/// solve starts: a plan stamps per-step devices only then.
class SolveStartMark : public circuit::Device {
  public:
    SolveStartMark(std::string name, AssemblyAudit& audit)
        : Device(std::move(name)), audit_(audit) {}
    void stamp(circuit::MnaSystem&, const circuit::StampContext&) override {
        audit_.mark_solve_start();
    }

  private:
    AssemblyAudit& audit_;
};

/// Add an audit and its solve-start mark to the end of @p audited.
inline AssemblyAudit& add_audit(circuit::Circuit& audited, circuit::Circuit& twin) {
    auto& audit = audited.add<AssemblyAudit>("AUDIT", audited, twin);
    audited.add<SolveStartMark>("AUDIT_SOLVE_START", audit);
    return audit;
}

}  // namespace rfabm::test
