//! A policy condition decides in `PolicyEngine` exactly as the same text
//! does in a SQL `WHERE` clause over the decision context laid out as a
//! one-row table: both run through the engine's expression evaluator.

use flock_policy::{DecisionContext, Outcome, Policy, PolicyAction, PolicyEngine};
use flock_sql::{Database, Value};

/// `LIKE`, `CASE` and scalar functions: constructs a condition may use in
/// a continuous query's `WHEN` clause.
const CONDITION: &str = "region LIKE 'E%' \
     AND CASE WHEN amount > 50000 THEN ROUND(risk * 10) ELSE 0 END >= 9 \
     AND UPPER(channel) <> 'BRANCH'";

struct Case {
    region: &'static str,
    amount: f64,
    risk: f64,
    /// `None`: the context lacks the field (NULL on both sides).
    channel: Option<&'static str>,
}

fn policy_denies(condition: &str, case: &Case) -> bool {
    let mut ctx = DecisionContext::new()
        .with_text("region", case.region)
        .with_number("amount", case.amount)
        .with_number("risk", case.risk);
    if let Some(channel) = case.channel {
        ctx.set_text("channel", channel);
    }
    let mut engine = PolicyEngine::new();
    engine.add(
        Policy::new(
            "deny",
            condition,
            PolicyAction::Deny {
                reason: "rule".into(),
            },
        )
        .unwrap(),
    );
    let decision = engine.decide(ctx).unwrap();
    matches!(decision.outcome, Outcome::Denied { .. })
}

fn where_selects(condition: &str, case: &Case) -> bool {
    let db = Database::new();
    db.execute("CREATE TABLE ctx (region VARCHAR, amount DOUBLE, risk DOUBLE, channel VARCHAR)")
        .unwrap();
    let channel = case
        .channel
        .map_or("NULL".to_string(), |c| format!("'{c}'"));
    db.execute(&format!(
        "INSERT INTO ctx VALUES ('{}', {:?}, {:?}, {channel})",
        case.region, case.amount, case.risk
    ))
    .unwrap();
    let b = db
        .query(&format!("SELECT COUNT(*) FROM ctx WHERE {condition}"))
        .unwrap();
    match b.column(0).get(0) {
        Value::Int(n) => n == 1,
        other => panic!("COUNT(*) = {other:?}"),
    }
}

#[test]
fn a_condition_decides_as_its_where_clause_does() {
    let cases = [
        Case {
            region: "EU",
            amount: 60000.0,
            risk: 0.93,
            channel: Some("web"),
        },
        Case {
            region: "EU",
            amount: 60000.0,
            risk: 0.84,
            channel: Some("web"),
        },
        Case {
            region: "US",
            amount: 60000.0,
            risk: 0.99,
            channel: Some("web"),
        },
        Case {
            region: "EU",
            amount: 1000.0,
            risk: 0.99,
            channel: Some("web"),
        },
        Case {
            region: "EU",
            amount: 60000.0,
            risk: 0.99,
            channel: Some("branch"),
        },
        Case {
            region: "EU",
            amount: 60000.0,
            risk: 0.99,
            channel: None,
        },
    ];
    let mut matched = 0;
    for case in &cases {
        let want = where_selects(CONDITION, case);
        assert_eq!(
            policy_denies(CONDITION, case),
            want,
            "{} {} {} {:?}",
            case.region,
            case.amount,
            case.risk,
            case.channel
        );
        matched += usize::from(want);
    }
    // The cases reach both verdicts.
    assert_eq!(matched, 1);
}

/// A field the context lacks is an untyped NULL, as a NULL in a VARCHAR
/// column is in SQL: defensive text conditions over it type-check.
#[test]
fn an_absent_text_field_is_an_untyped_null() {
    let conditions = [
        "COALESCE(channel, 'web') = 'web'",
        "CASE WHEN risk > 0.5 THEN channel ELSE 'none' END = 'none'",
        "channel IS NULL AND region = 'EU'",
    ];
    for present in [None, Some("web"), Some("branch")] {
        let case = Case {
            region: "EU",
            amount: 100.0,
            risk: 0.2,
            channel: present,
        };
        for condition in conditions {
            assert_eq!(
                policy_denies(condition, &case),
                where_selects(condition, &case),
                "{condition} with channel {present:?}"
            );
        }
    }
    let absent = Case {
        region: "EU",
        amount: 100.0,
        risk: 0.2,
        channel: None,
    };
    assert!(policy_denies(conditions[0], &absent));
    assert!(policy_denies(conditions[1], &absent));
}
