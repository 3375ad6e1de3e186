#include "lint/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

namespace rfabm::lint {

std::string_view to_string(Severity severity) {
    switch (severity) {
        case Severity::kNote: return "note";
        case Severity::kWarning: return "warning";
        case Severity::kError: return "error";
    }
    return "?";
}

const std::vector<RuleInfo>& rule_catalog() {
    static const std::vector<RuleInfo> kCatalog = {
        // --- ABM switch-state rules (1149.4) --------------------------------
        {"abm-both-buses", Severity::kWarning,
         "ABM pin connected to AB1 and AB2 simultaneously (SB1 and SB2 closed)"},
        {"abm-drive-during-probe", Severity::kError,
         "SH/SL/SG closed during PROBE, disturbing the mission path the instruction promises to "
         "preserve"},
        {"abm-mode-mismatch", Severity::kError,
         "ABM switch state contradicts the mode table for the active instruction (stuck switch or "
         "corrupted boundary latch)"},
        {"abm-sd-not-isolated", Severity::kError,
         "SD closed in EXTEST/INTEST/CLAMP: core not isolated from the pin"},
        {"abm-sh-sl-short", Severity::kError,
         "SH and SL closed together: VH-VL crowbar through the pin"},
        // --- netlist ERC ----------------------------------------------------
        {"erc-dangling-node", Severity::kWarning,
         "node touched by exactly one device terminal"},
        {"erc-defect-armed", Severity::kError,
         "defect device (bridge/leak) armed in the netlist under lint"},
        {"erc-device-fault", Severity::kError,
         "device carries an injected stuck fault (switch or MOSFET)"},
        {"erc-duplicate-name", Severity::kError, "two devices share one name"},
        {"erc-floating-node", Severity::kError,
         "node has no DC path to ground: its operating point is undefined"},
        {"erc-inductor-loop", Severity::kError,
         "inductor closes a loop of voltage sources/inductors (infinite DC current)"},
        {"erc-isolated-subnet", Severity::kError,
         "connected subcircuit with no ground reference"},
        {"erc-self-loop", Severity::kWarning, "device has both terminals on the same node"},
        {"erc-switch-ron-roff", Severity::kError,
         "switch on-resistance is not below its off-resistance"},
        {"erc-undefined-model", Severity::kError, "MOSFET references a .model that is not defined"},
        {"erc-value-suspicious", Severity::kWarning,
         "component value outside the plausible range for its unit"},
        {"erc-value-zero", Severity::kError, "component value is zero or negative"},
        {"erc-voltage-loop", Severity::kError,
         "loop of voltage sources (contradictory or redundant DC constraints)"},
        // --- flow-sensitive scan-program rules (lint/flow) --------------------
        {"flow-abm-wrong-register", Severity::kError,
         "ABM payload shifted while the latched instruction selects another register"},
        {"flow-bad-die", Severity::kError,
         "campaign step targets a die outside the declared chain topology"},
        {"flow-break-before-make", Severity::kError,
         "one update event hands a pin straight from AB1 to AB2 (or back) with no "
         "disconnect interval"},
        {"flow-bus-contention", Severity::kError,
         "two latched drivers on one shared analog bus across the dies of a chain"},
        {"flow-crowbar-window", Severity::kError,
         "SH and SL latched closed together in the window between two update events"},
        {"flow-dead-update", Severity::kWarning,
         "select update overwritten before any measure/calibrate observes it (dead "
         "program step)"},
        {"flow-measure-before-calibrate", Severity::kWarning,
         "die measured before any calibrate step anchors its conversion curve"},
        {"flow-parse-error", Severity::kError, "campaign program file does not parse"},
        {"flow-read-before-select", Severity::kError,
         "detector read before its routing (or an analog test instruction) has landed"},
        {"flow-unpowered-read", Severity::kError,
         "detector read while the power-gating select bit is not known to be on"},
        {"mux-select-mismatch", Severity::kError,
         ".4 MUX switch state disagrees with the latched select word (stuck switch)"},
        {"netlist-parse-error", Severity::kError, "netlist does not parse"},
        // --- select-bus rules -----------------------------------------------
        {"select-bus-conflict", Severity::kError,
         "select word routes two drivers (or a driver and a load) onto one analog bus"},
        {"select-double-load", Severity::kWarning,
         "select word routes one analog bus into two loads at once"},
        {"select-unpowered", Severity::kWarning,
         "select word routes a detector output while detector power is off"},
        // --- TBIC rules -----------------------------------------------------
        {"tbic-at-short", Severity::kError,
         "AT1 and AT2 shorted together through a TBIC reference rail"},
        {"tbic-drive-while-connect", Severity::kWarning,
         "TBIC drives a characterization level onto a bus-connected ATAP pin"},
        {"tbic-not-isolated", Severity::kError,
         "TBIC switch closed outside an analog test instruction"},
        {"tbic-vh-vl-short", Severity::kError,
         "TBIC shorts VH to VL through an ATAP pin"},
    };
    return kCatalog;
}

bool is_known_rule(std::string_view id) {
    const auto& catalog = rule_catalog();
    return std::any_of(catalog.begin(), catalog.end(),
                       [&](const RuleInfo& info) { return info.id == id; });
}

bool Report::add(Diagnostic diag) {
    if (suppressed(diag)) {
        ++suppressed_;
        return false;
    }
    diags_.push_back(std::move(diag));
    return true;
}

bool Report::add(std::string rule, Severity severity, SourceLoc loc, std::string message,
                 std::string fixit, std::string device) {
    Diagnostic diag;
    diag.rule = std::move(rule);
    diag.severity = severity;
    diag.loc = std::move(loc);
    diag.message = std::move(message);
    diag.fixit = std::move(fixit);
    diag.device = std::move(device);
    return add(std::move(diag));
}

void Report::suppress_rule(std::string rule) { rule_suppressions_.insert(std::move(rule)); }

void Report::suppress_line(std::size_t line, std::string rule) {
    line_suppressions_[line].insert(std::move(rule));
}

bool Report::suppressed(const Diagnostic& diag) const {
    if (rule_suppressions_.count(diag.rule) || rule_suppressions_.count("*")) return true;
    if (diag.loc.valid()) {
        const auto it = line_suppressions_.find(diag.loc.line);
        if (it != line_suppressions_.end() &&
            (it->second.count(diag.rule) || it->second.count("*"))) {
            return true;
        }
    }
    return false;
}

std::size_t Report::count(Severity severity) const {
    return static_cast<std::size_t>(std::count_if(
        diags_.begin(), diags_.end(),
        [severity](const Diagnostic& d) { return d.severity == severity; }));
}

void Report::sort() {
    std::stable_sort(diags_.begin(), diags_.end(), [](const Diagnostic& a, const Diagnostic& b) {
        return std::tie(a.loc.file, a.loc.line, a.loc.column, a.rule) <
               std::tie(b.loc.file, b.loc.line, b.loc.column, b.rule);
    });
}

namespace {

std::string location_prefix(const Diagnostic& diag) {
    std::ostringstream out;
    if (diag.loc.valid()) {
        out << (diag.loc.file.empty() ? "<netlist>" : diag.loc.file) << ':' << diag.loc.line;
        if (diag.loc.column > 0) out << ':' << diag.loc.column;
    } else if (!diag.device.empty()) {
        out << diag.device;
    } else {
        out << "<state>";
    }
    return out.str();
}

void append_json_string(std::string& out, std::string_view text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

}  // namespace

std::string Report::to_text() const {
    std::ostringstream out;
    for (const Diagnostic& diag : diags_) {
        out << location_prefix(diag) << ": " << to_string(diag.severity) << ": " << diag.message
            << " [" << diag.rule << "]\n";
        if (!diag.fixit.empty()) out << "    fix-it: " << diag.fixit << "\n";
        if (!diag.witness.empty()) {
            out << "    witness:\n";
            for (const std::string& step : diag.witness) out << "      " << step << "\n";
        }
    }
    const std::size_t errors = error_count();
    const std::size_t warnings = warning_count();
    out << errors << (errors == 1 ? " error, " : " errors, ") << warnings
        << (warnings == 1 ? " warning." : " warnings.");
    if (suppressed_ > 0) out << " (" << suppressed_ << " suppressed)";
    out << "\n";
    return out.str();
}

std::string Report::to_json() const {
    std::string out = "{\"diagnostics\":[";
    bool first = true;
    for (const Diagnostic& diag : diags_) {
        if (!first) out += ',';
        first = false;
        out += "{\"rule\":";
        append_json_string(out, diag.rule);
        out += ",\"severity\":";
        append_json_string(out, to_string(diag.severity));
        if (diag.loc.valid()) {
            out += ",\"file\":";
            append_json_string(out, diag.loc.file);
            out += ",\"line\":" + std::to_string(diag.loc.line);
            out += ",\"column\":" + std::to_string(diag.loc.column);
        }
        if (!diag.device.empty()) {
            out += ",\"device\":";
            append_json_string(out, diag.device);
        }
        out += ",\"message\":";
        append_json_string(out, diag.message);
        if (!diag.fixit.empty()) {
            out += ",\"fixit\":";
            append_json_string(out, diag.fixit);
        }
        if (!diag.witness.empty()) {
            out += ",\"witness\":[";
            bool first_step = true;
            for (const std::string& step : diag.witness) {
                if (!first_step) out += ',';
                first_step = false;
                append_json_string(out, step);
            }
            out += ']';
        }
        out += '}';
    }
    out += "],\"errors\":" + std::to_string(error_count());
    out += ",\"warnings\":" + std::to_string(warning_count());
    out += ",\"suppressed\":" + std::to_string(suppressed_) + "}";
    return out;
}

}  // namespace rfabm::lint
