// Modified-Nodal-Analysis system assembly.
//
// Devices stamp conductances, currents and branch equations into an MnaSystem
// (real, for DC/transient Newton iterations) or a ComplexMna (for AC
// small-signal analysis).  Ground rows/columns are suppressed at stamp time so
// devices never special-case node 0.  Every stamp also marks the entry it
// writes: in a nonlinear pattern while a nonlinear device stamps, otherwise
// in a touched pattern.  MnaSystem::solve hands both to its sparse LU.
//
// Assembly plan.  A Newton loop that reuses one MnaSystem assembles through
// MnaSystem::assemble, which keeps the last full stamp as a plan and
// re-stamps each device only as often as its StampRole says: a
// matrix-constant device once per plan, a per-step device once per Newton
// solve, a per-iteration device every iteration.  The plan holds while its
// key holds: the circuit, its node and branch counts, the analysis mode, dt,
// the integration method, gmin, the source scale, the extra diagonal gmin,
// and the circuit's stamp version, which adding a device and every mutator
// of a matrix-constant device bump.  Each entry keeps the left-to-right sum,
// in device order, of the terms stamp_devices (newton.hpp) adds into it:
// entries no per-step or per-iteration device writes keep their value,
// the others are re-summed from the kept constant terms and the fresh
// ones, so every entry is bit-identical to a full stamp's.  x -= g is
// recorded as x += -g, which IEEE 754 defines to be the same operation.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/matrix.hpp"
#include "circuit/types.hpp"

namespace rfabm::circuit {

/// How often a device's stamp can change, which sets how often an assembly
/// plan re-stamps it.
enum class StampRole : std::uint8_t {
    /// Changes only through mutators that bump the circuit's stamp version
    /// (Device::bump_stamp_version); stamped once per plan.
    kConstant,
    /// May change between Newton solves, never within one (time, companion
    /// history, waveforms); stamped once per solve.
    kPerStep,
    /// Depends on the Newton iterate; stamped every iteration.
    kPerIteration,
};

namespace detail {

/// Shared stamping arithmetic over the element type.
template <typename T>
class MnaBase {
  public:
    MnaBase() = default;

    /// Prepare a zeroed system for @p num_nodes nodes (incl. ground) and
    /// @p num_branches branch equations.
    void reset(std::size_t num_nodes, std::size_t num_branches) {
        num_nodes_ = num_nodes;
        const std::size_t n = num_nodes - 1 + num_branches;
        if (a_.rows() != n) {
            a_.resize(n, n);
            b_.assign(n, T{});
            touched_.reset(n);
            nonlinear_.reset(n);
        } else {
            a_.clear();
            std::fill(b_.begin(), b_.end(), T{});
            touched_.clear();
            nonlinear_.clear();
        }
        marking_nonlinear_ = false;
        capture_slots_ = nullptr;
        capture_values_ = nullptr;
    }

    /// While on, stamps mark their entries in nonlinear() instead of
    /// touched(): set it around the stamp of a device whose entries change
    /// with the iterate.
    void mark_nonlinear(bool on) { marking_nonlinear_ = on; }

    std::size_t dimension() const { return b_.size(); }

    /// Matrix row/column of a node; -1 for ground.
    std::ptrdiff_t node_index(NodeId node) const {
        return node == kGround ? -1 : static_cast<std::ptrdiff_t>(node) - 1;
    }

    /// Matrix row/column of branch @p branch.
    std::ptrdiff_t branch_index(std::size_t branch) const {
        return static_cast<std::ptrdiff_t>(num_nodes_ - 1 + branch);
    }

    /// Two-terminal conductance @p g between @p a and @p b.
    void add_conductance(NodeId a, NodeId b, T g) {
        const auto ia = node_index(a);
        const auto ib = node_index(b);
        if (ia >= 0) add(ia, ia, g);
        if (ib >= 0) add(ib, ib, g);
        if (ia >= 0 && ib >= 0) {
            add(ia, ib, -g);
            add(ib, ia, -g);
        }
    }

    /// Transconductance: current @p g * (v(cp) - v(cn)) flows from @p out_p to
    /// @p out_n (i.e. leaves out_p, enters out_n).
    void add_transconductance(NodeId out_p, NodeId out_n, NodeId cp, NodeId cn, T g) {
        const auto iop = node_index(out_p);
        const auto ion = node_index(out_n);
        const auto icp = node_index(cp);
        const auto icn = node_index(cn);
        if (iop >= 0 && icp >= 0) add(iop, icp, g);
        if (iop >= 0 && icn >= 0) add(iop, icn, -g);
        if (ion >= 0 && icp >= 0) add(ion, icp, -g);
        if (ion >= 0 && icn >= 0) add(ion, icn, g);
    }

    /// Constant current @p i flowing from node @p a to node @p b through the
    /// device (leaves a, enters b).
    void add_current(NodeId a, NodeId b, T i) {
        const auto ia = node_index(a);
        const auto ib = node_index(b);
        if (ia >= 0) add_rhs(ia, -i);
        if (ib >= 0) add_rhs(ib, i);
    }

    /// Raw diagonal add (gmin stepping).
    void add_node_diagonal(NodeId node, T g) {
        const auto i = node_index(node);
        if (i >= 0) add(i, i, g);
    }

    /// Branch stamping primitives -------------------------------------------

    /// KCL coupling: branch current @p sign * i(branch) leaves node @p node.
    void add_branch_to_node(NodeId node, std::size_t branch, T sign) {
        const auto in = node_index(node);
        if (in >= 0) add(in, branch_index(branch), sign);
    }

    /// Branch-equation coefficient on a node voltage.
    void add_node_to_branch(std::size_t branch, NodeId node, T coeff) {
        const auto in = node_index(node);
        if (in >= 0) add(branch_index(branch), in, coeff);
    }

    /// Branch-equation coefficient on a branch current.
    void add_branch_to_branch(std::size_t eq_branch, std::size_t cur_branch, T coeff) {
        add(branch_index(eq_branch), branch_index(cur_branch), coeff);
    }

    /// Branch-equation right-hand side.
    void add_branch_rhs(std::size_t branch, T value) { add_rhs(branch_index(branch), value); }

    DenseMatrix<T>& matrix() { return a_; }
    std::vector<T>& rhs() { return b_; }
    const DenseMatrix<T>& matrix() const { return a_; }
    const std::vector<T>& rhs() const { return b_; }
    /// Entries stamped since the last reset(), outside and inside
    /// mark_nonlinear(true) respectively; an entry both kinds of device
    /// write is in both.
    const SparsityPattern& touched() const { return touched_; }
    const SparsityPattern& nonlinear() const { return nonlinear_; }

  protected:
    /// Until stop_capture(), stamps append each term's flat slot (row *
    /// dimension() + column for a matrix entry, dimension()^2 + row for a
    /// right-hand-side entry) to @p slots and its value to @p values instead
    /// of adding it into the system.
    void start_capture(std::vector<std::uint32_t>& slots, std::vector<T>& values) {
        capture_slots_ = &slots;
        capture_values_ = &values;
    }
    void stop_capture() {
        capture_slots_ = nullptr;
        capture_values_ = nullptr;
    }
    SparsityPattern& touched_pattern() { return touched_; }
    SparsityPattern& nonlinear_pattern() { return nonlinear_; }

  private:
    void add(std::ptrdiff_t r, std::ptrdiff_t c, T v) {
        const auto row = static_cast<std::size_t>(r);
        const auto col = static_cast<std::size_t>(c);
        if (capture_slots_ != nullptr) {
            capture(row * b_.size() + col, v);
            return;
        }
        (marking_nonlinear_ ? nonlinear_ : touched_).mark(row, col);
        a_(row, col) += v;
    }

    void add_rhs(std::ptrdiff_t r, T v) {
        const auto row = static_cast<std::size_t>(r);
        if (capture_slots_ != nullptr) {
            capture(b_.size() * b_.size() + row, v);
            return;
        }
        b_[row] += v;
    }

    void capture(std::size_t slot, T v) {
        capture_slots_->push_back(static_cast<std::uint32_t>(slot));
        capture_values_->push_back(v);
    }

    std::size_t num_nodes_ = 1;
    DenseMatrix<T> a_;
    std::vector<T> b_;
    SparsityPattern touched_;
    SparsityPattern nonlinear_;
    bool marking_nonlinear_ = false;
    std::vector<std::uint32_t>* capture_slots_ = nullptr;
    std::vector<T>* capture_values_ = nullptr;
};

}  // namespace detail

/// Real MNA system used by DC and transient Newton iterations.  It keeps its
/// assembly plan, the elimination plan of its sparse LU and the state of its
/// last solve across Newton iterations, so a Newton loop or a transient
/// engine that reuses one system re-stamps only what changed, replays the
/// elimination plan on every solve, and re-eliminates only the cone of the
/// nonlinear entries while every other entry is unchanged.
class MnaSystem : public detail::MnaBase<double> {
  public:
    /// What a plan's kept stamp depends on besides the devices' own state.
    /// Two keys match when every field is bitwise equal.
    struct PlanKey {
        const void* circuit = nullptr;
        std::uint64_t stamp_version = 0;
        std::size_t nodes = 1;
        std::size_t branches = 0;
        int mode = 0;
        int method = 0;
        double dt = 0.0;
        double gmin = 0.0;
        double source_scale = 0.0;
        double extra_diag_gmin = 0.0;
    };

    /// Zero the system for direct stamping and drop the assembly plan.
    void reset(std::size_t num_nodes, std::size_t num_branches) {
        MnaBase::reset(num_nodes, num_branches);
        drop_plan();
    }

    /// Assemble the system of one Newton iteration through the plan.
    /// @p devices devices make up the circuit; @p role_of(d) gives device d's
    /// role and @p stamp(d) stamps it into this system.  @p step_start marks
    /// the first iteration of a Newton solve, when per-step devices
    /// re-stamp.  The key adds @p key.extra_diag_gmin to every node diagonal
    /// after the devices when positive.  Leaves the same matrix, right-hand
    /// side, touched() and nonlinear() as reset() followed by stamp_devices
    /// and that diagonal; every device's stamp() runs at most once.
    template <typename RoleOf, typename Stamp>
    void assemble(const PlanKey& key, std::size_t devices, RoleOf role_of, Stamp stamp,
                  bool step_start) {
        const bool rekeyed = begin_assembly(key, devices, role_of);
        if (rekeyed) {
            capture(StampRole::kConstant, stamp);
            capture_extra_diagonal();
        }
        if (rekeyed || step_start) capture(StampRole::kPerStep, stamp);
        capture(StampRole::kPerIteration, stamp);
        finish_assembly(rekeyed, step_start);
    }

    /// Solve the assembled system into @p x with a partial-pivoting LU
    /// bit-identical to lu_solve_in_place (see SparseLu), treating the
    /// nonlinear() entries as the ones that change between solves.  Leaves
    /// the assembled system unchanged.  When the plan assembled both this
    /// system and the previous solve's, and no entry outside nonlinear()
    /// changed in between, the LU skips the checks that would prove it.
    /// Throws SingularMatrixError.
    void solve(std::vector<double>& x) {
        const bool unchanged = unchanged_;
        unchanged_ = false;
        work_ = rhs();
        lu_.solve(matrix(), work_, touched(), nonlinear(), x, unchanged);
        unchanged_ = planned_;
    }

    const SparseLu& lu() const { return lu_; }

    /// Plans compiled from a full stamp (new structure), and re-keyed plans
    /// that kept their structure and only re-summed every entry.
    std::uint64_t plan_compiles() const { return compiles_; }
    std::uint64_t plan_updates() const { return updates_; }

  private:
    /// One role's devices and their captured terms.
    struct Group {
        std::vector<std::uint32_t> devices;  ///< circuit indices, in circuit order
        std::vector<std::uint32_t> slots;    ///< captured terms' slots, in call order
        std::vector<std::uint32_t> ends;     ///< end of each device's terms in slots
        std::vector<std::uint32_t> plan_slots;  ///< slots and ends the plan was compiled from
        std::vector<std::uint32_t> plan_ends;
        std::uint32_t base = 0;  ///< offset of the group's values in values_
    };

    /// How one written entry is re-summed: values_[order_[k]] for k in
    /// [begin, end), in device order; per-iteration terms start at split.
    struct SlotProgram {
        std::uint32_t slot;
        std::uint32_t begin;
        std::uint32_t split;
        std::uint32_t end;
    };

    /// A term of the full stamp, in device order.
    struct Term {
        std::uint32_t slot;
        std::uint32_t value;  ///< index into values_
        StampRole role;
    };

    Group& group(StampRole role) { return groups_[static_cast<std::size_t>(role)]; }

    template <typename RoleOf>
    bool begin_assembly(const PlanKey& key, std::size_t devices, RoleOf& role_of) {
        if (planned_ && same_key(key)) return false;
        roles_.resize(devices);
        for (std::size_t d = 0; d < devices; ++d) roles_[d] = role_of(d);
        rekey(key);
        return true;
    }

    template <typename Stamp>
    void capture(StampRole role, Stamp& stamp) {
        Group& g = group(role);
        values_.resize(g.base);
        g.slots.clear();
        g.ends.clear();
        start_capture(g.slots, values_);
        for (const std::uint32_t d : g.devices) {
            stamp(static_cast<std::size_t>(d));
            g.ends.push_back(static_cast<std::uint32_t>(g.slots.size()));
        }
        stop_capture();
        set_bases();
    }

    bool same_key(const PlanKey& key) const;
    void rekey(const PlanKey& key);
    void capture_extra_diagonal();
    void set_bases();
    void finish_assembly(bool rekeyed, bool step_start);
    bool structure_kept(bool rekeyed, bool step_start) const;
    void compile();
    void sum_all();
    void sum_step();
    void sum_iteration();
    void drop_plan();

    SparseLu lu_;
    std::vector<double> work_;  ///< the right-hand side the LU consumes

    // The assembly plan.
    bool planned_ = false;    ///< the system is the plan's assembly for key_
    bool compiled_ = false;   ///< programs_ match the groups' plan slots and ends
    bool unchanged_ = false;  ///< nothing outside nonlinear() changed since the last solve
    PlanKey key_;
    std::vector<StampRole> roles_;       ///< per device, at the last re-key
    std::vector<StampRole> plan_roles_;  ///< the roles programs_ were compiled for
    Group groups_[3];
    std::vector<double> values_;  ///< captured values: constant, per-step, per-iteration
    std::vector<SlotProgram> programs_;  ///< constant, then per-step, then per-iteration slots
    std::size_t first_step_ = 0;
    std::size_t first_iteration_ = 0;
    std::vector<std::uint32_t> order_;
    std::vector<double> base_;  ///< per per-iteration slot: its terms before split
    std::vector<Term> terms_;                 ///< compile scratch
    std::vector<std::uint32_t> slot_program_;  ///< compile scratch, per slot
    std::uint64_t compiles_ = 0;
    std::uint64_t updates_ = 0;
};

/// Complex MNA system used by AC small-signal analysis.
using ComplexMna = detail::MnaBase<std::complex<double>>;

}  // namespace rfabm::circuit
