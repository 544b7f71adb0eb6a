//! Integer fields of the trace JSON codec: [`TraceEvent::from_json`]
//! accepts exactly the non-negative integral numbers, however they are
//! spelled, and rejects fractions, negatives and overflowing exponents.

use subfed_metrics::trace::TraceEvent;

fn upload_in_round(round: &str) -> Result<TraceEvent, String> {
    TraceEvent::from_json(&format!(
        "{{\"ev\":\"upload\",\"round\":{round},\"client\":0,\"bytes\":8}}"
    ))
}

#[test]
fn integer_fields_accept_exactly_the_non_negative_integers() {
    for (text, round) in [("0", 0), ("-0", 0), ("7", 7)] {
        assert_eq!(
            upload_in_round(text),
            Ok(TraceEvent::Upload { round, client: 0, bytes: 8 }),
            "round {text}"
        );
    }
    // `1e999` parses to +inf, whose fractional part is NaN.
    for text in ["1.5", "-1", "1e999"] {
        assert!(upload_in_round(text).is_err(), "round {text} parsed");
    }
}
