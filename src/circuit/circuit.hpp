// Circuit: the netlist container.
//
// Owns devices and the node-name registry, assigns MNA branch indices, and
// propagates environment (temperature) and process-corner settings to every
// device.  Analyses (dc.hpp, transient.hpp, ac.hpp) operate on a Circuit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/device.hpp"
#include "circuit/types.hpp"

namespace rfabm::circuit {

/// Netlist container.  Nodes are created on demand by name (or anonymously);
/// devices are created in place via add<>() and owned by the circuit.
class Circuit {
  public:
    Circuit() = default;
    // Devices point at stamp_version_, so a circuit stays where it was built.
    Circuit(const Circuit&) = delete;
    Circuit& operator=(const Circuit&) = delete;

    /// Get or create the node with the given name.  "0" and "gnd" map to ground.
    NodeId node(const std::string& name);

    /// Create an anonymous internal node.
    NodeId make_node(const std::string& hint = "n");

    /// Look up an existing node by name.
    std::optional<NodeId> find_node(const std::string& name) const;

    /// Name of @p node ("0" for ground).
    const std::string& node_name(NodeId node) const;

    /// Number of nodes including ground.
    std::size_t num_nodes() const { return names_.size(); }

    /// Construct a device in place.  The device name must be unique.
    /// Returns a reference with the concrete type for further configuration.
    template <typename D, typename... Args>
    D& add(std::string name, Args&&... args) {
        if (index_.contains(name)) {
            throw std::invalid_argument("duplicate device name: " + name);
        }
        auto dev = std::make_unique<D>(name, std::forward<Args>(args)...);
        D& ref = *dev;
        ref.set_stamp_version(&stamp_version_);
        ref.set_temperature(temperature_k_);
        ref.apply_process(corner_);
        index_.emplace(std::move(name), devices_.size());
        devices_.push_back(std::move(dev));
        finalized_ = false;
        ++stamp_version_;
        return ref;
    }

    /// Find a device by name (nullptr if absent).
    Device* find_device(const std::string& name);
    const Device* find_device(const std::string& name) const;

    /// Typed lookup; throws std::invalid_argument if missing or wrong type.
    template <typename D>
    D& get(const std::string& name) {
        auto* d = dynamic_cast<D*>(find_device(name));
        if (d == nullptr) throw std::invalid_argument("no such device: " + name);
        return *d;
    }

    const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

    /// Assign branch indices.  Called lazily by analyses; idempotent.
    void finalize();

    /// Total MNA branch equations after finalize().
    std::size_t num_branches() const { return num_branches_; }

    /// True if finalize() is up to date.
    bool finalized() const { return finalized_; }

    /// Set the ambient temperature (Celsius) and propagate to devices.
    void set_temperature_c(double celsius);
    double temperature_c() const;

    /// Apply a process corner to all devices (idempotent: devices keep
    /// nominal parameters and re-derive effective ones).
    void set_process(const ProcessCorner& corner);
    const ProcessCorner& process() const { return corner_; }

    /// True if any device is nonlinear (analyses use this to pick iteration
    /// strategy).
    bool has_nonlinear() const;

    /// Counter that adding a device and every mutator of a matrix-constant
    /// device bump; an assembly plan keyed on an older value stamps again.
    std::uint64_t stamp_version() const { return stamp_version_; }

    /// The system DC solves of this circuit assemble into, kept so repeated
    /// operating points (session opens, sweeps) reuse its assembly and
    /// elimination plans instead of compiling them per call.
    MnaSystem& dc_system() { return dc_system_; }

  private:
    std::vector<std::string> names_{"0"};
    std::unordered_map<std::string, NodeId> node_ids_{{"0", kGround}, {"gnd", kGround}};
    std::vector<std::unique_ptr<Device>> devices_;
    std::unordered_map<std::string, std::size_t> index_;
    std::size_t num_branches_ = 0;
    bool finalized_ = false;
    double temperature_k_ = kNominalTemperatureK;
    ProcessCorner corner_{};
    std::uint64_t stamp_version_ = 0;
    MnaSystem dc_system_;
};

}  // namespace rfabm::circuit
