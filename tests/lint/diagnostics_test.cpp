// Unit tests for the shared diagnostics engine: severities, suppression,
// sorting, text/JSON rendering, rule catalog consistency.
#include <gtest/gtest.h>

#include <algorithm>

#include "lint/diagnostics.hpp"

namespace rfabm::lint {
namespace {

Diagnostic make(const std::string& rule, Severity sev, const std::string& file, std::size_t line,
                std::size_t col, const std::string& msg) {
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.loc = {file, line, col};
    d.message = msg;
    return d;
}

TEST(Diagnostics, CountsBySeverity) {
    Report r;
    r.add(make("erc-value-zero", Severity::kError, "a.cir", 1, 1, "zero"));
    r.add(make("erc-value-suspicious", Severity::kWarning, "a.cir", 2, 1, "odd"));
    r.add(make("erc-value-suspicious", Severity::kWarning, "a.cir", 3, 1, "odd"));
    EXPECT_EQ(r.error_count(), 1u);
    EXPECT_EQ(r.warning_count(), 2u);
    EXPECT_TRUE(r.has_errors());
    EXPECT_FALSE(r.empty());
}

TEST(Diagnostics, TextFormatIsCompilerStyle) {
    Report r;
    Diagnostic d = make("erc-floating-node", Severity::kError, "deck.cir", 7, 3, "node floats");
    d.fixit = "ground it";
    r.add(std::move(d));
    const std::string text = r.to_text();
    EXPECT_NE(text.find("deck.cir:7:3: error: node floats [erc-floating-node]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("fix-it: ground it"), std::string::npos);
    EXPECT_NE(text.find("1 error, 0 warnings."), std::string::npos);
}

TEST(Diagnostics, StateDiagnosticsUseDevicePath) {
    Report r;
    Diagnostic d;
    d.rule = "abm-sh-sl-short";
    d.severity = Severity::kError;
    d.device = "RF_ABM";
    d.message = "crowbar";
    r.add(std::move(d));
    EXPECT_NE(r.to_text().find("RF_ABM: error: crowbar"), std::string::npos) << r.to_text();
}

TEST(Diagnostics, RuleSuppression) {
    Report r;
    r.suppress_rule("erc-dangling-node");
    EXPECT_FALSE(r.add(make("erc-dangling-node", Severity::kWarning, "a.cir", 1, 1, "x")));
    EXPECT_TRUE(r.add(make("erc-floating-node", Severity::kError, "a.cir", 1, 1, "x")));
    EXPECT_EQ(r.suppressed_count(), 1u);
    EXPECT_EQ(r.diagnostics().size(), 1u);
}

TEST(Diagnostics, LineSuppressionOnlyHitsThatLine) {
    Report r;
    r.suppress_line(4, "erc-value-suspicious");
    EXPECT_FALSE(r.add(make("erc-value-suspicious", Severity::kWarning, "a.cir", 4, 1, "x")));
    EXPECT_TRUE(r.add(make("erc-value-suspicious", Severity::kWarning, "a.cir", 5, 1, "x")));
}

TEST(Diagnostics, WildcardSuppressesEverything) {
    Report r;
    r.suppress_rule("*");
    EXPECT_FALSE(r.add(make("erc-floating-node", Severity::kError, "a.cir", 1, 1, "x")));
    EXPECT_TRUE(r.empty());
}

TEST(Diagnostics, SortOrdersByLocation) {
    Report r;
    r.add(make("b-rule", Severity::kWarning, "z.cir", 1, 1, "z"));
    r.add(make("a-rule", Severity::kWarning, "a.cir", 9, 1, "late"));
    r.add(make("a-rule", Severity::kWarning, "a.cir", 2, 5, "early"));
    r.sort();
    EXPECT_EQ(r.diagnostics()[0].message, "early");
    EXPECT_EQ(r.diagnostics()[1].message, "late");
    EXPECT_EQ(r.diagnostics()[2].loc.file, "z.cir");
}

TEST(Diagnostics, JsonEscapesAndCounts) {
    Report r;
    r.add(make("netlist-parse-error", Severity::kError, "a\"b.cir", 3, 0, "bad \"token\"\n"));
    const std::string json = r.to_json();
    EXPECT_NE(json.find("\"rule\":\"netlist-parse-error\""), std::string::npos) << json;
    EXPECT_NE(json.find("a\\\"b.cir"), std::string::npos) << json;
    EXPECT_NE(json.find("\\n"), std::string::npos) << json;
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"line\":3"), std::string::npos) << json;
}

TEST(Diagnostics, CatalogIsSortedAndQueryable) {
    const auto& catalog = rule_catalog();
    ASSERT_FALSE(catalog.empty());
    EXPECT_TRUE(std::is_sorted(catalog.begin(), catalog.end(),
                               [](const RuleInfo& a, const RuleInfo& b) { return a.id < b.id; }));
    EXPECT_TRUE(is_known_rule("erc-floating-node"));
    EXPECT_TRUE(is_known_rule("abm-sh-sl-short"));
    EXPECT_TRUE(is_known_rule("flow-abm-wrong-register"));
    EXPECT_FALSE(is_known_rule("no-such-rule"));
}

}  // namespace
}  // namespace rfabm::lint
