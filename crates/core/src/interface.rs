//! Service interfaces: the typed contract between a client and a proxy.
//!
//! In the proxy principle, the *interface* is the part of a service a
//! client sees — local, fixed and type-checked — while the *protocol*
//! behind the proxy stays private to the service. [`InterfaceDesc`] is the
//! runtime description of such an interface: each operation declares
//! whether it reads or writes, whether it is idempotent, and which
//! argument identifies the datum it touches. Generic smart proxies use
//! these declarations to decide what is cacheable and what invalidates
//! what, without knowing anything else about the service.

use std::borrow::Cow;

use wire::{Value, WireError};

/// Whether an operation observes or mutates service state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Pure observation; result may be cached.
    Read,
    /// Mutation; invalidates cached reads of the same tag.
    Write,
}

impl OpKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
        }
    }
}

/// Description of one operation in a service interface.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDesc {
    /// Operation name (the `op` field of requests).
    pub name: String,
    /// Read or write.
    pub kind: OpKind,
    /// Name of the argument field that identifies the datum this
    /// operation touches (its *cache tag*). `None` means the operation
    /// touches the whole object: reads are tagged by the full argument
    /// encoding, and writes invalidate everything.
    pub key_field: Option<String>,
    /// Whether re-executing the operation is harmless. Purely
    /// informational for transports that might relax at-most-once.
    pub idempotent: bool,
}

impl OpDesc {
    /// A cacheable read keyed by `key_field`.
    pub fn read(name: impl Into<String>, key_field: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Read,
            key_field: Some(key_field.into()),
            idempotent: true,
        }
    }

    /// A read that observes the whole object (tagged by full arguments).
    pub fn read_whole(name: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Read,
            key_field: None,
            idempotent: true,
        }
    }

    /// A write affecting the datum named by `key_field`.
    pub fn write(name: impl Into<String>, key_field: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Write,
            key_field: Some(key_field.into()),
            idempotent: false,
        }
    }

    /// A write affecting the whole object (invalidates every cached read).
    pub fn write_whole(name: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Write,
            key_field: None,
            idempotent: false,
        }
    }

    /// Marks the operation idempotent (builder style).
    pub fn idempotent(mut self) -> OpDesc {
        self.idempotent = true;
        self
    }

    /// The cache tag this operation touches for the given arguments:
    /// the value of `key_field` if declared and present, otherwise the
    /// whole-object tag `"*"`. String keys — the common case — are
    /// borrowed from `args`; only numeric keys allocate.
    pub fn tag<'a>(&self, args: &'a Value) -> Cow<'a, str> {
        match self.key_field.as_deref().and_then(|field| args.get(field)) {
            Some(Value::Str(s)) => Cow::Borrowed(s.as_str()),
            Some(Value::U64(n)) => Cow::Owned(n.to_string()),
            Some(Value::I64(n)) => Cow::Owned(n.to_string()),
            _ => Cow::Borrowed("*"),
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".into(), Value::str(self.name.clone())),
            ("kind".into(), Value::str(self.kind.as_str())),
            ("idem".into(), Value::Bool(self.idempotent)),
        ];
        if let Some(k) = &self.key_field {
            fields.push(("key".into(), Value::str(k.clone())));
        }
        Value::Record(fields)
    }

    fn from_value(v: &Value) -> Result<OpDesc, WireError> {
        let kind = match v.get_str("kind")? {
            "write" => OpKind::Write,
            _ => OpKind::Read,
        };
        Ok(OpDesc {
            name: v.get_str("name")?.to_owned(),
            kind,
            key_field: v.get("key").and_then(|k| k.as_str().map(str::to_owned)),
            idempotent: v.get_bool("idem").unwrap_or(false),
        })
    }
}

/// Runtime description of a service interface (its abstract type).
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceDesc {
    /// The service's type name; also keys the object factory used to
    /// re-instantiate migrated objects.
    pub type_name: String,
    /// The operations the interface exposes.
    pub ops: Vec<OpDesc>,
}

impl InterfaceDesc {
    /// Creates an interface description.
    ///
    /// # Panics
    ///
    /// Panics if two operations share a name: an interface is a
    /// function from operation names to signatures, so duplicates are
    /// always a programming error.
    pub fn new(
        type_name: impl Into<String>,
        ops: impl IntoIterator<Item = OpDesc>,
    ) -> InterfaceDesc {
        let ops: Vec<OpDesc> = ops.into_iter().collect();
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert!(
                    a.name != b.name,
                    "duplicate operation `{}` in interface",
                    a.name
                );
            }
        }
        InterfaceDesc {
            type_name: type_name.into(),
            ops,
        }
    }

    /// Looks up an operation by name.
    pub fn op(&self, name: &str) -> Option<&OpDesc> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// Whether `name` is a declared read.
    pub fn is_read(&self, name: &str) -> bool {
        matches!(self.op(name), Some(o) if o.kind == OpKind::Read)
    }

    /// Whether `name` is a declared write.
    pub fn is_write(&self, name: &str) -> bool {
        matches!(self.op(name), Some(o) if o.kind == OpKind::Write)
    }

    /// Encodes the interface as a wire value (the `_iface` system op).
    pub fn to_value(&self) -> Value {
        Value::record([
            ("type", Value::str(self.type_name.clone())),
            ("ops", Value::list(self.ops.iter().map(OpDesc::to_value))),
        ])
    }

    /// Decodes an interface from a wire value.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for missing or malformed fields.
    pub fn from_value(v: &Value) -> Result<InterfaceDesc, WireError> {
        let ops = v
            .get_list("ops")?
            .iter()
            .map(OpDesc::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(InterfaceDesc {
            type_name: v.get_str("type")?.to_owned(),
            ops,
        })
    }

    /// Whether a subtype relation holds: `self` provides at least the
    /// operations of `other`, with matching kinds (the conformance rule
    /// distributed systems use instead of implementation inheritance).
    pub fn conforms_to(&self, other: &InterfaceDesc) -> bool {
        other.ops.iter().all(|needed| {
            self.op(&needed.name)
                .map(|have| have.kind == needed.kind)
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_iface() -> InterfaceDesc {
        InterfaceDesc::new(
            "kv",
            [
                OpDesc::read("get", "key"),
                OpDesc::write("put", "key"),
                OpDesc::read_whole("len"),
                OpDesc::write_whole("clear"),
            ],
        )
    }

    #[test]
    fn lookup_and_classification() {
        let i = kv_iface();
        assert!(i.is_read("get"));
        assert!(i.is_write("put"));
        assert!(!i.is_read("put"));
        assert!(!i.is_write("nope"));
        assert_eq!(i.op("len").unwrap().kind, OpKind::Read);
    }

    #[test]
    fn tags_follow_key_field() {
        let i = kv_iface();
        let args = Value::record([("key", Value::str("color")), ("v", Value::str("blue"))]);
        assert_eq!(i.op("get").unwrap().tag(&args), "color");
        assert_eq!(i.op("put").unwrap().tag(&args), "color");
        // Whole-object ops tag "*".
        assert_eq!(i.op("len").unwrap().tag(&Value::Null), "*");
        // Numeric keys stringify.
        let nargs = Value::record([("key", Value::U64(7))]);
        assert_eq!(i.op("get").unwrap().tag(&nargs), "7");
        // Missing key field degrades to whole-object.
        assert_eq!(i.op("get").unwrap().tag(&Value::Null), "*");
    }

    #[test]
    fn wire_roundtrip() {
        let i = kv_iface();
        let v = i.to_value();
        assert_eq!(InterfaceDesc::from_value(&v).unwrap(), i);
    }

    #[test]
    fn conformance_is_operation_superset() {
        let full = kv_iface();
        let reader = InterfaceDesc::new("kv-read", [OpDesc::read("get", "key")]);
        assert!(full.conforms_to(&reader));
        assert!(!reader.conforms_to(&full));
        // Same op name but different kind does not conform.
        let weird = InterfaceDesc::new("weird", [OpDesc::write("get", "key")]);
        assert!(!weird.conforms_to(&reader));
        // Every interface conforms to itself and to the empty interface.
        assert!(full.conforms_to(&full));
        assert!(reader.conforms_to(&InterfaceDesc::new("empty", [])));
    }

    #[test]
    fn idempotent_builder() {
        let op = OpDesc::write("reset", "key").idempotent();
        assert!(op.idempotent);
    }
}
