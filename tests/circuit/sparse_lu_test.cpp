// Bit-identity of MnaSystem::solve (the sparse LU replaying a cached
// elimination plan, or re-eliminating only the cone of its nonlinear
// entries) against the dense lu_solve_in_place reference: every solution is
// compared with memcmp, every singular matrix must fail at the same column.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "circuit/matrix.hpp"
#include "circuit/mna.hpp"

namespace rfabm::circuit {
namespace {

/// Dense reference solution of the system assembled in @p sys, or the
/// column at which the dense LU reports a singular matrix.
struct DenseResult {
    std::vector<double> x;
    std::optional<std::size_t> singular_column;
};

DenseResult dense_solve(const MnaSystem& sys) {
    DenseMatrix<double> a = sys.matrix();
    DenseResult out{sys.rhs(), std::nullopt};
    try {
        lu_solve_in_place(a, out.x);
    } catch (const SingularMatrixError& e) {
        out.singular_column = e.column();
    }
    return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Solve @p sys both ways; true when the results agree bit for bit (or both
/// report the same singular column).  Consumes the assembled system.
::testing::AssertionResult solves_identically(MnaSystem& sys) {
    const DenseResult ref = dense_solve(sys);
    std::vector<double> x;
    std::optional<std::size_t> singular_column;
    try {
        sys.solve(x);
    } catch (const SingularMatrixError& e) {
        singular_column = e.column();
    }
    if (ref.singular_column != singular_column) {
        return ::testing::AssertionFailure()
               << "singular column: dense " << ref.singular_column.value_or(SIZE_MAX)
               << ", sparse " << singular_column.value_or(SIZE_MAX);
    }
    if (!singular_column && !same_bits(ref.x, x)) {
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (std::memcmp(&ref.x[i], &x[i], sizeof(double)) != 0) {
                return ::testing::AssertionFailure() << "unknown " << i << ": dense " << ref.x[i]
                                                     << ", sparse " << x[i];
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/// Stamp a single matrix entry (r, c) between non-ground nodes r + 1, c + 1.
void add_entry(MnaSystem& sys, std::size_t r, std::size_t c, double v) {
    sys.add_transconductance(static_cast<NodeId>(r + 1), kGround, static_cast<NodeId>(c + 1),
                             kGround, v);
}

/// A random MNA-shaped netlist: conductances (some to ground), VCCS
/// couplings, ideal voltage sources and inductor-like branch equations, whose
/// values can be re-drawn on an unchanged structure.  The VCCS are stamped
/// as nonlinear entries.
class RandomNetlist {
  public:
    RandomNetlist(std::size_t n, std::uint64_t seed) : rng_(seed) {
        branches_ = n / 8;
        nodes_ = n - branches_ + 1;  // including ground
        std::uniform_int_distribution<NodeId> any_node(0, static_cast<NodeId>(nodes_ - 1));
        for (NodeId a = 1; a < static_cast<NodeId>(nodes_); ++a) {
            conductances_.push_back({a, kGround});
            conductances_.push_back({a, any_node(rng_)});
        }
        for (std::size_t i = 0; i < nodes_ / 4; ++i) {
            vccs_.push_back({any_node(rng_), any_node(rng_), any_node(rng_), any_node(rng_)});
        }
        for (std::size_t b = 0; b < branches_; ++b) {
            // Alternate voltage sources (zero branch diagonal) and inductors,
            // each from its own node to any other, so no source shorts itself.
            const auto p = static_cast<NodeId>(b + 1);
            NodeId m = any_node(rng_);
            while (m == p) m = any_node(rng_);
            branch_nodes_.push_back({p, m});
        }
    }

    std::size_t dimension() const { return nodes_ - 1 + branches_; }

    /// Stamp the netlist with fresh values: log-uniform magnitudes, each
    /// value scaled by (1 + @p jitter * noise) of a fixed base draw when
    /// @p jitter > 0, so small jitters keep pivots and large ones move them.
    /// The VCCS and the current sources take @p vccs_jitter instead; with
    /// @p jitter = 0 only they change between stamps.
    void stamp(MnaSystem& sys, double jitter) { stamp(sys, jitter, jitter); }
    void stamp(MnaSystem& sys, double jitter, double vccs_jitter) {
        if (base_.empty()) {
            std::uniform_real_distribution<double> expo(-6.0, 3.0);
            std::bernoulli_distribution negative(0.3);
            const std::size_t values = conductances_.size() + vccs_.size() + 2 * branches_ +
                                       dimension();
            for (std::size_t i = 0; i < values; ++i) {
                base_.push_back((negative(rng_) ? -1.0 : 1.0) * std::pow(10.0, expo(rng_)));
            }
        }
        std::uniform_real_distribution<double> noise(-1.0, 1.0);
        std::size_t k = 0;
        auto next = [&](double j) { return base_[k++] * (1.0 + j * noise(rng_)); };
        sys.reset(nodes_, branches_);
        for (const auto& [a, b] : conductances_) {
            sys.add_conductance(a, b, std::fabs(next(jitter)));
        }
        sys.mark_nonlinear(true);
        for (const auto& v : vccs_) {
            sys.add_transconductance(v[0], v[1], v[2], v[3], next(vccs_jitter));
        }
        sys.mark_nonlinear(false);
        for (std::size_t b = 0; b < branches_; ++b) {
            const auto [p, m] = branch_nodes_[b];
            sys.add_branch_to_node(p, b, 1.0);
            sys.add_branch_to_node(m, b, -1.0);
            sys.add_node_to_branch(b, p, 1.0);
            sys.add_node_to_branch(b, m, -1.0);
            const double rhs = next(jitter);
            const double inductance = next(jitter);
            if (b % 2 == 1) sys.add_branch_to_branch(b, b, -std::fabs(inductance));
            sys.add_branch_rhs(b, rhs);
        }
        for (NodeId a = 1; a < static_cast<NodeId>(nodes_); ++a) {
            sys.add_current(a, kGround, next(vccs_jitter));
        }
    }

  private:
    std::mt19937_64 rng_;
    std::size_t nodes_ = 1;
    std::size_t branches_ = 0;
    std::vector<std::pair<NodeId, NodeId>> conductances_;
    std::vector<std::array<NodeId, 4>> vccs_;
    std::vector<std::pair<NodeId, NodeId>> branch_nodes_;
    std::vector<double> base_;
};

class SparseLuSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparseLuSizes, RandomMnaMatricesMatchDenseBitForBit) {
    const std::size_t n = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RandomNetlist net(n, seed * 1149 + n);
        ASSERT_EQ(net.dimension(), n);
        MnaSystem sys;
        for (int state = 0; state < 60; ++state) {
            // Mostly small moves around the base draw (plan replayed), every
            // tenth state a large one (pivots move, plan re-derived).
            net.stamp(sys, state % 10 == 9 ? 0.9 : 1e-3);
            ASSERT_TRUE(solves_identically(sys)) << "n=" << n << " seed=" << seed
                                                 << " state=" << state;
        }
        EXPECT_EQ(sys.lu().solves(), 60u);
        EXPECT_LT(sys.lu().plans(), sys.lu().solves()) << "plan never reused";
        if (n > 2) {
            EXPECT_GT(sys.lu().plans(), 1u) << "no pivot ever moved";
        }
    }
}

TEST_P(SparseLuSizes, NonlinearOnlyChangesRefreshTheirCone) {
    const std::size_t n = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RandomNetlist net(n, seed * 1149 + n);
        MnaSystem sys;
        for (int state = 0; state < 60; ++state) {
            // The linear entries keep their base values; the nonlinear ones
            // move a little (pivots kept) or, every tenth state, a lot.
            net.stamp(sys, 0.0, state % 10 == 9 ? 0.9 : 1e-3);
            ASSERT_TRUE(solves_identically(sys)) << "n=" << n << " seed=" << seed
                                                 << " state=" << state;
        }
        // Each plan costs at most two full replays (the one that records
        // it, the one that compiles its cone); every other solve refreshed.
        EXPECT_GE(sys.lu().refreshes() + 2 * sys.lu().plans(), sys.lu().solves());
        EXPECT_GE(sys.lu().refreshes(), 40u) << "n=" << n << " seed=" << seed;
    }
}

// n = 41 is the chip; 63/64/65 and 130 cross one and two bitset words.
INSTANTIATE_TEST_SUITE_P(WordBoundaries, SparseLuSizes,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{41},
                                           std::size_t{63}, std::size_t{64}, std::size_t{65},
                                           std::size_t{130}));

/// Five nodes, no branches: clear diagonal pivots in columns 0-2, and a
/// column-3 pivot decided by entry (4, 3), stamped as a nonlinear entry when
/// @p nonlinear is set.
void stamp_pivot_case(MnaSystem& sys, double a43, bool nonlinear = false) {
    sys.reset(6, 0);
    for (std::size_t i = 0; i < 3; ++i) add_entry(sys, i, i, 4.0);
    add_entry(sys, 0, 3, 1.0);
    add_entry(sys, 3, 0, 1.0);
    add_entry(sys, 1, 4, 0.5);
    add_entry(sys, 4, 1, 0.25);
    add_entry(sys, 3, 3, 2.0);
    sys.mark_nonlinear(nonlinear);
    add_entry(sys, 4, 3, a43);
    sys.mark_nonlinear(false);
    add_entry(sys, 3, 4, 1.0);
    add_entry(sys, 4, 4, 3.0);
    add_entry(sys, 2, 2, 0.125);
    for (NodeId a = 1; a <= 5; ++a) sys.add_current(kGround, a, 0.1 * a);
}

TEST(SparseLu, PivotThatLosesPartwayReplansFromItsColumn) {
    MnaSystem sys;
    stamp_pivot_case(sys, 1.0);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().planned_columns(), 5u);

    // Same values: the whole plan replays.
    stamp_pivot_case(sys, 1.0);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().plans(), 1u);

    // Row 4 now wins column 3 (|5| > |2 - 0.25|): columns 0-2 replay, the
    // plan is re-derived from column 3 on.
    stamp_pivot_case(sys, 5.0);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().plans(), 2u);
    EXPECT_EQ(sys.lu().planned_columns(), 5u + 2u);

    // And back again.
    stamp_pivot_case(sys, 1.0);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().planned_columns(), 5u + 2u + 2u);
}

TEST(SparseLu, PivotMovingInsideTheConeFallsBackToTheFullReplay) {
    // After columns 0-2, column 3 holds 1.75 in row 3 and a43 in row 4.  The
    // first solve records the plan, the second reuses it and compiles the
    // cone, the third refreshes.
    MnaSystem sys;
    for (const double a43 : {1.0, 1.5, 1.25}) {
        stamp_pivot_case(sys, a43, true);
        ASSERT_TRUE(solves_identically(sys)) << "a43=" << a43;
    }
    EXPECT_EQ(sys.lu().refreshes(), 1u);

    // Row 4 wins column 3: the refresh sees it and the full replay re-plans.
    stamp_pivot_case(sys, 5.0, true);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().refreshes(), 1u);
    EXPECT_EQ(sys.lu().plans(), 2u);
    EXPECT_EQ(sys.lu().planned_columns(), 5u + 2u);

    // The new plan's cone refreshes in turn, until the pivot moves back.
    for (const double a43 : {5.5, 6.0}) {
        stamp_pivot_case(sys, a43, true);
        ASSERT_TRUE(solves_identically(sys)) << "a43=" << a43;
    }
    EXPECT_EQ(sys.lu().refreshes(), 2u);
    stamp_pivot_case(sys, 1.0, true);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().refreshes(), 2u);
    EXPECT_EQ(sys.lu().plans(), 3u);
}

TEST(SparseLu, ChangedLinearEntryTakesTheFullReplay) {
    RandomNetlist net(41, 11);
    MnaSystem sys;
    for (int i = 0; i < 3; ++i) {
        net.stamp(sys, 0.0, 1e-3);
        ASSERT_TRUE(solves_identically(sys));
    }
    EXPECT_EQ(sys.lu().refreshes(), 1u);

    // A linear entry moves (a new time step, a switch toggling): the full
    // replay runs, on the same plan, and again when it moves back.
    net.stamp(sys, 0.0, 1e-3);
    add_entry(sys, 5, 5, 0.5);
    ASSERT_TRUE(solves_identically(sys));
    net.stamp(sys, 0.0, 1e-3);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().refreshes(), 1u);
    net.stamp(sys, 0.0, 1e-3);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().refreshes(), 2u);
    EXPECT_EQ(sys.lu().plans(), 1u);
}

TEST(SparseLu, GrowingNonlinearPatternRecompilesTheCone) {
    RandomNetlist net(41, 9);
    MnaSystem sys;
    for (int i = 0; i < 3; ++i) {
        net.stamp(sys, 0.0, 1e-3);
        ASSERT_TRUE(solves_identically(sys));
    }
    EXPECT_EQ(sys.lu().refreshes(), 1u);

    // A linear entry now also written by a nonlinear stamp: the first solve
    // that marks it runs the full replay and compiles the larger cone, the
    // later ones refresh it.
    for (int i = 0; i < 4; ++i) {
        net.stamp(sys, 0.0, 1e-3);
        sys.mark_nonlinear(true);
        add_entry(sys, 7, 7, 0.1 * (i + 1));
        sys.mark_nonlinear(false);
        ASSERT_TRUE(solves_identically(sys)) << "state " << i;
    }
    EXPECT_EQ(sys.lu().refreshes(), 1u + 3u);
    EXPECT_EQ(sys.lu().plans(), 1u);
}

/// Three unknowns; column 1 holds only the nonlinear entry (1, 1) = @p g.
void stamp_lone_nonlinear_column(MnaSystem& sys, double g) {
    sys.reset(4, 0);
    add_entry(sys, 0, 0, 2.0);
    add_entry(sys, 0, 1, 1.0);
    add_entry(sys, 1, 2, 0.3);
    add_entry(sys, 2, 2, 1.0);
    sys.mark_nonlinear(true);
    add_entry(sys, 1, 1, g);
    sys.mark_nonlinear(false);
    for (NodeId a = 1; a <= 3; ++a) sys.add_current(kGround, a, 0.5 * a);
}

TEST(SparseLu, SingularColumnInsideTheConeThrowsTheDenseColumn) {
    MnaSystem sys;
    for (const double g : {1.0, 2.0, 2.5}) {
        stamp_lone_nonlinear_column(sys, g);
        ASSERT_TRUE(solves_identically(sys)) << "g=" << g;
    }
    EXPECT_EQ(sys.lu().refreshes(), 1u);

    // Only the nonlinear entry changed, so the refresh meets the zero pivot
    // and must throw the column the dense LU reports.
    stamp_lone_nonlinear_column(sys, 0.0);
    std::vector<double> x;
    try {
        sys.solve(x);
        FAIL() << "expected SingularMatrixError";
    } catch (const SingularMatrixError& e) {
        EXPECT_EQ(e.column(), 1u);
    }
    stamp_lone_nonlinear_column(sys, 0.0);
    ASSERT_TRUE(solves_identically(sys));

    // The throw dropped the kept solve: the next one replays in full, the
    // one after refreshes again.
    stamp_lone_nonlinear_column(sys, 3.0);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().refreshes(), 1u);
    stamp_lone_nonlinear_column(sys, 4.0);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().refreshes(), 2u);
}

TEST(SparseLu, NonFiniteNonlinearEntryMatchesTheFullReplay) {
    // The dense LU spreads NaN through 0 * NaN; the sparse one does not, so
    // the reference here is the full sparse replay of a fresh system.
    auto stamp = [](MnaSystem& sys, double g) {
        sys.reset(7, 0);
        for (NodeId a = 1; a <= 6; ++a) sys.add_conductance(a, kGround, 1.0);
        sys.add_conductance(1, 2, 0.5);
        sys.add_conductance(2, 3, 0.5);
        sys.add_conductance(4, 5, 0.5);
        sys.add_conductance(5, 6, 0.5);
        sys.mark_nonlinear(true);
        sys.add_transconductance(5, kGround, 2, kGround, g);
        sys.mark_nonlinear(false);
        for (NodeId a = 1; a <= 6; ++a) sys.add_current(kGround, a, 0.1 * a);
    };
    auto first_non_finite = [](const std::vector<double>& x) {
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (!std::isfinite(x[i])) return i;
        }
        return x.size();
    };
    MnaSystem warm;
    std::vector<double> x;
    for (const double g : {0.1, 0.2, 0.3, std::nan("")}) {
        stamp(warm, g);
        warm.solve(x);
    }
    EXPECT_EQ(warm.lu().refreshes(), 2u) << "the NaN solve must take the refresh path";
    MnaSystem cold;
    std::vector<double> ref;
    stamp(cold, std::nan(""));
    cold.solve(ref);
    EXPECT_EQ(cold.lu().refreshes(), 0u);
    EXPECT_TRUE(same_bits(ref, x));
    EXPECT_EQ(first_non_finite(x), first_non_finite(ref));
    EXPECT_LT(first_non_finite(x), x.size());
}

TEST(SparseLu, TiedPivotsResolveToTheFirstRowInPositionOrder) {
    // Voltage-source rows are full of exact +-1 ties; the dense rule keeps
    // the first strict maximum in the permuted order.
    MnaSystem sys;
    for (double g : {1.0, 0.5, 2.0, 1.0}) {
        sys.reset(4, 2);
        sys.add_branch_to_node(1, 0, 1.0);
        sys.add_node_to_branch(0, 1, 1.0);
        sys.add_branch_to_node(2, 1, 1.0);
        sys.add_node_to_branch(1, 2, 1.0);
        sys.add_node_to_branch(1, 3, -1.0);
        sys.add_branch_to_node(3, 1, -1.0);
        sys.add_conductance(1, 2, g);
        sys.add_conductance(2, 3, 1.0);
        sys.add_conductance(3, kGround, g);
        sys.add_branch_rhs(0, 1.0);
        sys.add_branch_rhs(1, 0.5);
        ASSERT_TRUE(solves_identically(sys)) << "g=" << g;
    }
}

TEST(SparseLu, NewlyTouchedEntryReplansOnTheUnion) {
    RandomNetlist net(41, 7);
    MnaSystem sys;
    net.stamp(sys, 1e-3);
    ASSERT_TRUE(solves_identically(sys));
    ASSERT_EQ(sys.lu().plans(), 1u);

    // An extra coupling outside the recorded pattern (a fault, gmin
    // stepping) forces a new plan on the union ...
    net.stamp(sys, 1e-3);
    add_entry(sys, 3, 37, 0.75);
    add_entry(sys, 37, 3, -0.5);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().plans(), 2u);

    // ... which then also serves the original pattern, a subset of it.
    net.stamp(sys, 1e-3);
    ASSERT_TRUE(solves_identically(sys));
    net.stamp(sys, 1e-3);
    add_entry(sys, 3, 37, 0.75);
    ASSERT_TRUE(solves_identically(sys));
    EXPECT_EQ(sys.lu().plans(), 2u);
}

TEST(SparseLu, ExactCancellationLeavesStructuralZeros) {
    MnaSystem sys;
    for (int round = 0; round < 2; ++round) {
        sys.reset(5, 0);
        // A stamp and its exact negation: touched entries holding +0.0.
        sys.add_conductance(1, 2, 0.3);
        sys.add_conductance(1, 2, -0.3);
        // Rows 0 and 1 proportional in column 0-1 so eliminating column 0
        // cancels entry (1, 1) exactly: row 2 must take the column-1 pivot.
        add_entry(sys, 0, 0, 2.0);
        add_entry(sys, 0, 1, 1.0);
        add_entry(sys, 1, 0, 4.0);
        add_entry(sys, 1, 1, 2.0);
        add_entry(sys, 1, 3, 1.0);
        add_entry(sys, 2, 1, 0.5);
        add_entry(sys, 2, 2, 1.0);
        add_entry(sys, 3, 3, 1.0);
        add_entry(sys, 3, 2, 0.25);
        add_entry(sys, 0, 2, 1e-3);
        for (NodeId a = 1; a <= 4; ++a) sys.add_current(kGround, a, 1.0 / a);
        ASSERT_TRUE(solves_identically(sys)) << "round " << round;
    }
    EXPECT_EQ(sys.lu().plans(), 1u);
}

TEST(SparseLu, SingularMatricesThrowAtTheDenseColumn) {
    MnaSystem sys;
    // A floating node: column 1 is all zero.
    sys.reset(4, 0);
    sys.add_conductance(1, kGround, 1.0);
    sys.add_conductance(3, kGround, 1.0);
    sys.add_current(kGround, 1, 1.0);
    ASSERT_TRUE(solves_identically(sys));

    // Numerically singular after elimination: row 1 = 2 * row 0.
    sys.reset(4, 0);
    add_entry(sys, 0, 0, 1.0);
    add_entry(sys, 0, 1, 2.0);
    add_entry(sys, 1, 0, 2.0);
    add_entry(sys, 1, 1, 4.0);
    add_entry(sys, 2, 2, 1.0);
    ASSERT_TRUE(solves_identically(sys));

    // Two voltage sources in parallel: a singular branch pair.
    sys.reset(2, 2);
    for (std::size_t b = 0; b < 2; ++b) {
        sys.add_branch_to_node(1, b, 1.0);
        sys.add_node_to_branch(b, 1, 1.0);
        sys.add_branch_rhs(b, 1.0);
    }
    ASSERT_TRUE(solves_identically(sys));

    // The system stays usable after a throw mid-plan.
    RandomNetlist net(41, 3);
    for (int i = 0; i < 3; ++i) {
        net.stamp(sys, 1e-3);
        ASSERT_TRUE(solves_identically(sys));
    }
}

}  // namespace
}  // namespace rfabm::circuit
