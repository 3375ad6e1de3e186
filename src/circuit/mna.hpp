// Modified-Nodal-Analysis system assembly.
//
// Devices stamp conductances, currents and branch equations into an MnaSystem
// (real, for DC/transient Newton iterations) or a ComplexMna (for AC
// small-signal analysis).  Ground rows/columns are suppressed at stamp time so
// devices never special-case node 0.  Every stamp also marks the entry it
// writes: in a nonlinear pattern while a nonlinear device stamps, otherwise
// in a touched pattern.  MnaSystem::solve hands both to its sparse LU.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "circuit/matrix.hpp"
#include "circuit/types.hpp"

namespace rfabm::circuit {

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
        if (ia >= 0) at(ia, ia) += g;
        if (ib >= 0) at(ib, ib) += g;
        if (ia >= 0 && ib >= 0) {
            at(ia, ib) -= g;
            at(ib, ia) -= g;
        }
    }

    /// Transconductance: current @p g * (v(cp) - v(cn)) flows from @p out_p to
    /// @p out_n (i.e. leaves out_p, enters out_n).
    void add_transconductance(NodeId out_p, NodeId out_n, NodeId cp, NodeId cn, T g) {
        const auto iop = node_index(out_p);
        const auto ion = node_index(out_n);
        const auto icp = node_index(cp);
        const auto icn = node_index(cn);
        if (iop >= 0 && icp >= 0) at(iop, icp) += g;
        if (iop >= 0 && icn >= 0) at(iop, icn) -= g;
        if (ion >= 0 && icp >= 0) at(ion, icp) -= g;
        if (ion >= 0 && icn >= 0) at(ion, icn) += g;
    }

    /// Constant current @p i flowing from node @p a to node @p b through the
    /// device (leaves a, enters b).
    void add_current(NodeId a, NodeId b, T i) {
        const auto ia = node_index(a);
        const auto ib = node_index(b);
        if (ia >= 0) b_[ia] -= i;
        if (ib >= 0) b_[ib] += i;
    }

    /// Raw diagonal add (gmin stepping).
    void add_node_diagonal(NodeId node, T g) {
        const auto i = node_index(node);
        if (i >= 0) at(i, i) += g;
    }

    /// Branch stamping primitives -------------------------------------------

    /// KCL coupling: branch current @p sign * i(branch) leaves node @p node.
    void add_branch_to_node(NodeId node, std::size_t branch, T sign) {
        const auto in = node_index(node);
        if (in >= 0) at(in, branch_index(branch)) += sign;
    }

    /// Branch-equation coefficient on a node voltage.
    void add_node_to_branch(std::size_t branch, NodeId node, T coeff) {
        const auto in = node_index(node);
        if (in >= 0) at(branch_index(branch), in) += coeff;
    }

    /// Branch-equation coefficient on a branch current.
    void add_branch_to_branch(std::size_t eq_branch, std::size_t cur_branch, T coeff) {
        at(branch_index(eq_branch), branch_index(cur_branch)) += coeff;
    }

    /// Branch-equation right-hand side.
    void add_branch_rhs(std::size_t branch, T value) {
        b_[static_cast<std::size_t>(branch_index(branch))] += value;
    }

    DenseMatrix<T>& matrix() { return a_; }
    std::vector<T>& rhs() { return b_; }
    const DenseMatrix<T>& matrix() const { return a_; }
    const std::vector<T>& rhs() const { return b_; }
    /// Entries stamped since the last reset(), outside and inside
    /// mark_nonlinear(true) respectively; an entry both kinds of device
    /// write is in both.
    const SparsityPattern& touched() const { return touched_; }
    const SparsityPattern& nonlinear() const { return nonlinear_; }

  private:
    T& at(std::ptrdiff_t r, std::ptrdiff_t c) {
        const auto row = static_cast<std::size_t>(r);
        const auto col = static_cast<std::size_t>(c);
        (marking_nonlinear_ ? nonlinear_ : touched_).mark(row, col);
        return a_(row, col);
    }

    std::size_t num_nodes_ = 1;
    DenseMatrix<T> a_;
    std::vector<T> b_;
    SparsityPattern touched_;
    SparsityPattern nonlinear_;
    bool marking_nonlinear_ = false;
};

}  // namespace detail

/// Real MNA system used by DC and transient Newton iterations.  It keeps the
/// elimination plan of its sparse LU and the state of its last solve across
/// reset(), so a Newton loop or a transient engine that reuses one system
/// replays the plan on every solve, and re-eliminates only the cone of the
/// nonlinear entries while every other entry is stamped unchanged.
class MnaSystem : public detail::MnaBase<double> {
  public:
    /// Solve the assembled system into @p x with a partial-pivoting LU
    /// bit-identical to lu_solve_in_place (see SparseLu), treating the
    /// nonlinear() entries as the ones that change between solves.  Leaves
    /// the assembled matrix unchanged and consumes the right-hand side;
    /// reset() before stamping again.  Throws SingularMatrixError.
    void solve(std::vector<double>& x) { lu_.solve(matrix(), rhs(), touched(), nonlinear(), x); }

    const SparseLu& lu() const { return lu_; }

  private:
    SparseLu lu_;
};

/// Complex MNA system used by AC small-signal analysis.
using ComplexMna = detail::MnaBase<std::complex<double>>;

}  // namespace rfabm::circuit
