//! Writing JSON by hand (the workspace carries no serde_json); reading is
//! `obs::json::parse`.

use std::collections::BTreeMap;

pub use obs::json::{parse, quote, Json};

/// A finite number with all its digits; integers print without a point.
///
/// # Panics
///
/// Panics on NaN or an infinity: no metric may be either.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// `{"k": v, ...}` from already-rendered values, in the given order.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", quote(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// A name → number map as a JSON object.
pub fn num_map(map: &BTreeMap<String, f64>) -> String {
    object(map.iter().map(|(k, v)| (k, num(*v))))
}

/// Reads a JSON object of numbers back into a map (absent or malformed
/// members are skipped).
pub fn read_num_map(v: Option<&Json>) -> BTreeMap<String, f64> {
    v.and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(35_988.0), "35988");
        assert_eq!(num(1.203_456_789_012), "1.203456789012");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn maps_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a.b".to_owned(), 1.5);
        m.insert("c".to_owned(), 2.0);
        let text = object([("inner", num_map(&m)), ("list", array([num(1.0)]))]);
        let parsed = parse(&text).unwrap();
        assert_eq!(read_num_map(parsed.get("inner")), m);
        assert_eq!(read_num_map(parsed.get("missing")), BTreeMap::new());
    }
}
