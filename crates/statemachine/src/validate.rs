//! Model-quality checks.
//!
//! The paper reports (Sect. 4.2) that building the high-level TV model "it
//! was very easy to make modeling errors, for instance, because there are
//! many interactions between features", and that executable models plus
//! checks were used to improve model quality. This module provides the
//! static portion of those checks: structural defects a modeler is likely
//! to introduce.

use crate::machine::Machine;
use crate::state::StateId;
use crate::transition::{Action, Trigger};
use std::collections::BTreeSet;
use std::fmt;

/// How serious a model issue is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable.
    Warning,
    /// Almost certainly a modeling mistake.
    Error,
}

/// One issue found in a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIssue {
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ModelIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}: {}", self.message)
    }
}

impl Machine {
    /// Runs all model-quality checks, returning the issues found.
    ///
    /// Checks:
    /// * unreachable states (never entered by any transition or initial
    ///   descent);
    /// * nondeterministic triggers: two guardless transitions from the same
    ///   state on the same event;
    /// * undeclared variables referenced by guards or actions;
    /// * outputs produced but not declared (and declared but never
    ///   produced);
    /// * zero-delay `after` transitions (degenerate timers).
    pub fn validate(&self) -> Vec<ModelIssue> {
        let mut issues = Vec::new();
        self.check_reachability(&mut issues);
        self.check_nondeterminism(&mut issues);
        self.check_vars(&mut issues);
        self.check_outputs(&mut issues);
        self.check_timers(&mut issues);
        issues
    }

    /// True when [`Machine::validate`] reports no `Error`-severity issues.
    pub fn is_well_formed(&self) -> bool {
        self.validate()
            .iter()
            .all(|i| i.severity != Severity::Error)
    }

    fn check_reachability(&self, issues: &mut Vec<ModelIssue>) {
        let mut reached: BTreeSet<StateId> = BTreeSet::new();
        let mut stack: Vec<StateId> = Vec::new();
        // Seed: full initial configuration.
        for id in self.initial_descent(self.initial()) {
            if reached.insert(id) {
                stack.push(id);
            }
        }
        while let Some(state) = stack.pop() {
            for tr in self.transitions() {
                // A transition is relevant if its source is the state or an
                // ancestor the state sits in.
                if !self.is_self_or_ancestor(tr.source, state) {
                    continue;
                }
                // Entering the target activates its ancestors and initial
                // descendants.
                let mut newly: Vec<StateId> = self.ancestors(tr.target);
                newly.extend(self.initial_descent(tr.target).into_iter().skip(1));
                for id in newly {
                    if reached.insert(id) {
                        stack.push(id);
                    }
                }
            }
        }
        for st in self.states() {
            if !reached.contains(&st.id) {
                issues.push(ModelIssue {
                    severity: Severity::Warning,
                    message: format!("state `{}` is unreachable", st.name),
                });
            }
        }
    }

    fn check_nondeterminism(&self, issues: &mut Vec<ModelIssue>) {
        let trs = self.transitions();
        for (i, a) in trs.iter().enumerate() {
            for b in trs.iter().skip(i + 1) {
                if a.source != b.source {
                    continue;
                }
                let same_trigger = match (&a.trigger, &b.trigger) {
                    (Trigger::On(x), Trigger::On(y)) => x == y,
                    _ => false,
                };
                if same_trigger && a.guard.is_none() && b.guard.is_none() {
                    issues.push(ModelIssue {
                        severity: Severity::Error,
                        message: format!(
                            "nondeterministic guardless transitions from `{}` on `{}`",
                            self.state(a.source).name,
                            a.trigger
                        ),
                    });
                }
            }
        }
    }

    fn collect_exprs(&self) -> Vec<&crate::expr::Expr> {
        let mut exprs = Vec::new();
        for tr in self.transitions() {
            if let Some(g) = &tr.guard {
                exprs.push(g);
            }
            for a in &tr.actions {
                match a {
                    Action::Assign(_, e) | Action::Output(_, e) => exprs.push(e),
                    Action::Emit(_, Some(e)) => exprs.push(e),
                    Action::Emit(_, None) => {}
                }
            }
        }
        for st in self.states() {
            for a in st.entry.iter().chain(st.exit.iter()) {
                match a {
                    Action::Assign(_, e) | Action::Output(_, e) => exprs.push(e),
                    Action::Emit(_, Some(e)) => exprs.push(e),
                    Action::Emit(_, None) => {}
                }
            }
        }
        exprs
    }

    fn check_vars(&self, issues: &mut Vec<ModelIssue>) {
        let declared: BTreeSet<&String> = self.initial_vars().keys().collect();
        let mut referenced = Vec::new();
        for e in self.collect_exprs() {
            e.referenced_vars(&mut referenced);
        }
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for name in referenced {
            if !declared.contains(&name) && seen.insert(name.clone()) {
                issues.push(ModelIssue {
                    severity: Severity::Error,
                    message: format!("variable `{name}` referenced but never declared"),
                });
            }
        }
    }

    fn check_outputs(&self, issues: &mut Vec<ModelIssue>) {
        let visit = |actions: &[Action]| -> Vec<String> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Output(n, _) => Some(n.clone()),
                    _ => None,
                })
                .collect()
        };
        let mut produced_owned: BTreeSet<String> = BTreeSet::new();
        for tr in self.transitions() {
            produced_owned.extend(visit(&tr.actions));
        }
        for st in self.states() {
            produced_owned.extend(visit(&st.entry));
            produced_owned.extend(visit(&st.exit));
        }
        for n in &produced_owned {
            if !self.outputs().contains(n) {
                issues.push(ModelIssue {
                    severity: Severity::Error,
                    message: format!("output `{n}` produced but not declared"),
                });
            }
        }
        for n in self.outputs() {
            if !produced_owned.contains(n) {
                issues.push(ModelIssue {
                    severity: Severity::Warning,
                    message: format!("output `{n}` declared but never produced"),
                });
            }
        }
    }

    fn check_timers(&self, issues: &mut Vec<ModelIssue>) {
        for tr in self.transitions() {
            if let Trigger::After(d) = tr.trigger {
                if d.is_zero() {
                    issues.push(ModelIssue {
                        severity: Severity::Warning,
                        message: format!(
                            "zero-delay `after` transition from `{}`",
                            self.state(tr.source).name
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;
    use crate::expr::Expr;
    use simkit::SimDuration;

    #[test]
    fn clean_machine_validates_empty() {
        let m = MachineBuilder::new("m")
            .state("a")
            .state("b")
            .initial("a")
            .output("o")
            .on("a", "go", "b", |t| t.output_const("o", 1))
            .on("b", "back", "a", |t| t)
            .build()
            .unwrap();
        assert!(m.validate().is_empty());
        assert!(m.is_well_formed());
    }

    #[test]
    fn unreachable_state_flagged() {
        let m = MachineBuilder::new("m")
            .state("a")
            .state("island")
            .initial("a")
            .build()
            .unwrap();
        let issues = m.validate();
        assert!(issues.iter().any(|i| i.message.contains("island")));
        assert!(m.is_well_formed()); // unreachable is only a warning
    }

    #[test]
    fn nondeterminism_flagged_as_error() {
        let m = MachineBuilder::new("m")
            .state("a")
            .state("b")
            .state("c")
            .initial("a")
            .on("a", "go", "b", |t| t)
            .on("a", "go", "c", |t| t)
            .build()
            .unwrap();
        let issues = m.validate();
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Error && i.message.contains("nondeterministic")));
        assert!(!m.is_well_formed());
    }

    #[test]
    fn guarded_duplicates_allowed() {
        let m = MachineBuilder::new("m")
            .state("a")
            .state("b")
            .state("c")
            .initial("a")
            .var("x", 0)
            .on("a", "go", "b", |t| t.guard(Expr::var("x").eq(Expr::lit(0))))
            .on("a", "go", "c", |t| t.guard(Expr::var("x").ne(Expr::lit(0))))
            .build()
            .unwrap();
        assert!(!m
            .validate()
            .iter()
            .any(|i| i.message.contains("nondeterministic")));
    }

    #[test]
    fn undeclared_var_flagged() {
        let m = MachineBuilder::new("m")
            .state("a")
            .initial("a")
            .on("a", "go", "a", |t| {
                t.guard(Expr::var("ghost").lt(Expr::lit(0)))
            })
            .build()
            .unwrap();
        assert!(m
            .validate()
            .iter()
            .any(|i| i.severity == Severity::Error && i.message.contains("ghost")));
    }

    #[test]
    fn undeclared_output_flagged() {
        let m = MachineBuilder::new("m")
            .state("a")
            .initial("a")
            .on("a", "go", "a", |t| t.output_const("surprise", 1))
            .build()
            .unwrap();
        assert!(m
            .validate()
            .iter()
            .any(|i| i.severity == Severity::Error && i.message.contains("surprise")));
    }

    #[test]
    fn unused_output_is_warning() {
        let m = MachineBuilder::new("m")
            .state("a")
            .initial("a")
            .output("silent")
            .build()
            .unwrap();
        let issues = m.validate();
        assert!(issues
            .iter()
            .any(|i| i.severity == Severity::Warning && i.message.contains("silent")));
    }

    #[test]
    fn zero_delay_timer_is_warning() {
        let m = MachineBuilder::new("m")
            .state("a")
            .state("b")
            .initial("a")
            .after("a", SimDuration::ZERO, "b", |t| t)
            .build()
            .unwrap();
        assert!(m
            .validate()
            .iter()
            .any(|i| i.message.contains("zero-delay")));
    }

    #[test]
    fn issue_display() {
        let issue = ModelIssue {
            severity: Severity::Error,
            message: "boom".into(),
        };
        assert_eq!(issue.to_string(), "error: boom");
    }
}
