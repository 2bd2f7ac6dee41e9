//! Service interfaces: the typed contract between a client and a proxy.
//!
//! In the proxy principle, the *interface* is the part of a service a
//! client sees — local, fixed and type-checked — while the *protocol*
//! behind the proxy stays private to the service. [`InterfaceDesc`] is the
//! runtime description of such an interface: each operation declares
//! whether it reads or writes, and which argument identifies the datum
//! it touches. Generic smart proxies use these declarations to decide
//! what is cacheable and what invalidates what, without knowing anything
//! else about the service. No declaration decides whether a call may be
//! sent again: every call is at-most-once, and the server's reply window
//! decides (see `rpc::RpcServer`).
//!
//! A descriptor travels in every name-server lookup reply (inside the
//! binding metadata `[spec, iface]`).
//! Both ends run this crate, so it is positional and names no field:
//! `[type, [op, …]]`, each op `[name, flags, key | null]` with `flags`
//! = 1 for a write and 0 for a read. Any other flags are refused.

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
}

impl OpDesc {
    /// A cacheable read keyed by `key_field`.
    pub fn read(name: impl Into<String>, key_field: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Read,
            key_field: Some(key_field.into()),
        }
    }

    /// A read that observes the whole object (tagged by full arguments).
    pub fn read_whole(name: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Read,
            key_field: None,
        }
    }

    /// A write affecting the datum named by `key_field`.
    pub fn write(name: impl Into<String>, key_field: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Write,
            key_field: Some(key_field.into()),
        }
    }

    /// A write affecting the whole object (invalidates every cached read).
    pub fn write_whole(name: impl Into<String>) -> OpDesc {
        OpDesc {
            name: name.into(),
            kind: OpKind::Write,
            key_field: None,
        }
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

    /// The op's record, `[name, flags, key | null]`, with `flags` = 1
    /// for a write.
    fn to_value(&self) -> Value {
        let flags = u64::from(self.kind == OpKind::Write);
        let key = self
            .key_field
            .as_ref()
            .map_or(Value::Null, |k| Value::str(k.clone()));
        Value::list([Value::str(self.name.clone()), Value::U64(flags), key])
    }

    fn from_value(v: &Value) -> Result<OpDesc, WireError> {
        let malformed = |actual| WireError::WrongKind {
            expected: "op record [name, flags, key | null]",
            actual,
        };
        let [name, flags, key] = v.as_list().ok_or(malformed("no list"))? else {
            return Err(malformed("another arity"));
        };
        // An unknown flag is refused, not ignored: a write read as a
        // read would be cached and never invalidated.
        let kind = match flags {
            Value::U64(0) => OpKind::Read,
            Value::U64(1) => OpKind::Write,
            _ => return Err(malformed("unknown flags")),
        };
        Ok(OpDesc {
            name: name.as_str().ok_or(malformed("a nameless op"))?.to_owned(),
            kind,
            key_field: match key {
                Value::Null => None,
                k => Some(
                    k.as_str()
                        .ok_or(malformed("a key of another kind"))?
                        .to_owned(),
                ),
            },
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

    /// Encodes the interface as a wire value (for the binding
    /// metadata): `[type, [op, …]]`, each op as
    /// `[name, flags, key | null]` with `flags` = 1 for a write.
    pub fn to_value(&self) -> Value {
        Value::list([
            Value::str(self.type_name.clone()),
            Value::list(self.ops.iter().map(OpDesc::to_value)),
        ])
    }

    /// Decodes an interface from a wire value.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for a wrong arity, a slot of the wrong
    /// kind or an unknown op flag.
    pub fn from_value(v: &Value) -> Result<InterfaceDesc, WireError> {
        let malformed = WireError::WrongKind {
            expected: "interface [type, [op, …]]",
            actual: "another shape",
        };
        let Some([Value::Str(type_name), Value::List(ops)]) = v.as_list() else {
            return Err(malformed);
        };
        Ok(InterfaceDesc {
            type_name: type_name.as_str().to_owned(),
            ops: ops
                .iter()
                .map(OpDesc::from_value)
                .collect::<Result<_, _>>()?,
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
    fn an_unknown_op_kind_is_refused() {
        let op = |flags: Value| {
            Value::list([
                Value::str("kv"),
                Value::list([Value::list([Value::str("put"), flags, Value::Null])]),
            ])
        };
        for flags in [2, 3, 4] {
            assert!(matches!(
                InterfaceDesc::from_value(&op(Value::U64(flags))),
                Err(WireError::WrongKind { .. })
            ));
        }
        assert!(InterfaceDesc::from_value(&op(Value::str("write"))).is_err());
        let read = InterfaceDesc::from_value(&op(Value::U64(0))).unwrap();
        assert_eq!(read.op("put").unwrap().kind, OpKind::Read);
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
}
