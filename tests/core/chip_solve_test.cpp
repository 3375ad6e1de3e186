// The sparse LU in MnaSystem::solve on the real chip: stamped at thousands
// of successive transient states of a running power read, with the
// nonlinear entries marked as newton_iterate marks them, every solution must
// match the dense lu_solve_in_place reference bit for bit, the cached
// elimination plan must be reused rather than re-derived, and nearly every
// solve must re-eliminate only the cone of the nonlinear entries.
#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <vector>

#include "circuit/matrix.hpp"
#include "circuit/mna.hpp"
#include "circuit/newton.hpp"
#include "core/chip.hpp"
#include "core/measurement.hpp"

namespace rfabm::core {
namespace {

TEST(ChipSolve, SparseLuMatchesDenseAtFiveThousandEngineStates) {
    RfAbmChip chip{RfAbmChipConfig{}};
    MeasurementController ctl(chip);
    ctl.open_session();
    chip.set_rf(-7.0, 1.5e9);
    circuit::TransientEngine& engine = chip.engine();
    circuit::Circuit& ckt = chip.circuit();

    circuit::MnaSystem sys;
    circuit::StampContext ctx;
    ctx.mode = circuit::AnalysisMode::kTransient;
    ctx.method = engine.options().method;
    ctx.gmin = engine.options().gmin;
    constexpr int kStates = 5000;
    int mismatches = 0;
    std::vector<double> x;
    for (int state = 0; state < kStates; ++state) {
        engine.step();
        // The system the next step's first Newton iteration assembles.
        ctx.x = &engine.solution();
        ctx.dt = engine.options().dt;
        ctx.time = engine.time() + ctx.dt;
        sys.reset(ckt.num_nodes(), ckt.num_branches());
        circuit::stamp_devices(ckt, sys, ctx);
        circuit::DenseMatrix<double> a = sys.matrix();
        std::vector<double> ref = sys.rhs();
        circuit::lu_solve_in_place(a, ref);
        sys.solve(x);
        ASSERT_EQ(x.size(), ref.size());
        if (std::memcmp(x.data(), ref.data(), x.size() * sizeof(double)) != 0) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(sys.dimension(), 41u);
    EXPECT_EQ(sys.lu().solves(), static_cast<std::uint64_t>(kStates));
    EXPECT_EQ(sys.lu().plans(), 1u) << "the plan recorded on the first state serves them all";
    const std::uint64_t refreshed = sys.lu().refreshes();
    const std::uint64_t full = sys.lu().solves() - refreshed;
    std::cout << "[ chip     ] " << refreshed << " refreshed, " << full << " full solves\n";
    RecordProperty("refreshed_solves", static_cast<int>(refreshed));
    RecordProperty("full_solves", static_cast<int>(full));
    // Only the first two states need the full replay (one records the plan,
    // the next compiles its cone): every later one changes nothing but the
    // MOSFETs' entries and keeps every pivot.
    EXPECT_EQ(full, 2u);
}

}  // namespace
}  // namespace rfabm::core
