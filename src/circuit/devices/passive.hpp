// Linear passive devices: resistor, capacitor, inductor.
//
// On-die passives (the default) respond to ProcessCorner scale factors; parts
// of the test bench that live off chip (source terminations, bias tees of the
// signal generator) are constructed with Placement::kOffChip so process spread
// does not touch them.
#pragma once

#include "circuit/device.hpp"
#include "circuit/types.hpp"

namespace rfabm::circuit {

/// Whether a passive device is fabricated on the die (subject to process
/// variation) or is part of the external test bench.
enum class Placement { kOnDie, kOffChip };

/// Ideal resistor between nodes a and b.
class Resistor : public Device {
  public:
    Resistor(std::string name, NodeId a, NodeId b, double ohms,
             Placement placement = Placement::kOnDie);

    /// Matrix-constant: apply_process() and set_nominal() bump the stamp
    /// version.
    StampRole stamp_role() const override { return StampRole::kConstant; }
    void stamp(MnaSystem& sys, const StampContext& ctx) override;
    void stamp_ac(ComplexMna& sys, double omega, const Solution& op) override;
    void apply_process(const ProcessCorner& corner) override;

    /// Effective (process-adjusted) resistance.
    double resistance() const { return effective_ohms_; }
    /// Nominal (design) resistance.
    double nominal() const { return nominal_ohms_; }
    /// Change the nominal value (e.g. a trimming procedure); re-applies process.
    void set_nominal(double ohms);

    NodeId a() const { return a_; }
    NodeId b() const { return b_; }

    std::vector<NodeId> terminals() const override { return {a_, b_}; }
    std::vector<std::pair<NodeId, NodeId>> dc_paths() const override { return {{a_, b_}}; }

  private:
    NodeId a_;
    NodeId b_;
    double nominal_ohms_;
    double effective_ohms_;
    Placement placement_;
    double last_res_factor_ = 1.0;
};

/// Ideal capacitor between nodes a and b.  Open in DC (with a gmin leak to
/// keep the matrix nonsingular); trapezoidal/backward-Euler companion in
/// transient.
class Capacitor : public Device {
  public:
    Capacitor(std::string name, NodeId a, NodeId b, double farads,
              Placement placement = Placement::kOnDie);

    void stamp(MnaSystem& sys, const StampContext& ctx) override;
    void stamp_ac(ComplexMna& sys, double omega, const Solution& op) override;
    void init_state(const Solution& op) override;
    void accept_step(const Solution& x, const StampContext& ctx) override;
    void apply_process(const ProcessCorner& corner) override;

    double capacitance() const { return effective_farads_; }
    void set_nominal(double farads);

    /// Voltage across the capacitor at the last accepted step.
    double last_voltage() const { return v_prev_; }

    NodeId a() const { return a_; }
    NodeId b() const { return b_; }

    /// A capacitor is open at DC: terminals but no DC path.
    std::vector<NodeId> terminals() const override { return {a_, b_}; }

  private:
    NodeId a_;
    NodeId b_;
    double nominal_farads_;
    double effective_farads_;
    Placement placement_;
    double last_cap_factor_ = 1.0;
    double v_prev_ = 0.0;  ///< voltage at last accepted step
    double i_prev_ = 0.0;  ///< current at last accepted step (trapezoidal)
};

/// Ideal inductor between nodes a and b; one MNA branch carrying its current.
/// Short in DC; companion model in transient.
class Inductor : public Device {
  public:
    Inductor(std::string name, NodeId a, NodeId b, double henries);

    std::size_t branch_count() const override { return 1; }
    void stamp(MnaSystem& sys, const StampContext& ctx) override;
    void stamp_ac(ComplexMna& sys, double omega, const Solution& op) override;
    void init_state(const Solution& op) override;
    void accept_step(const Solution& x, const StampContext& ctx) override;

    double inductance() const { return henries_; }

    NodeId a() const { return a_; }
    NodeId b() const { return b_; }

    std::vector<NodeId> terminals() const override { return {a_, b_}; }
    std::vector<std::pair<NodeId, NodeId>> dc_paths() const override { return {{a_, b_}}; }

  private:
    NodeId a_;
    NodeId b_;
    double henries_;
    double i_prev_ = 0.0;  ///< branch current at last accepted step
    double v_prev_ = 0.0;  ///< inductor voltage at last accepted step
};

}  // namespace rfabm::circuit
