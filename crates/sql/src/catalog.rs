//! The database catalog: tables, views, extension objects, and grants.
//!
//! The catalog is the enterprise heart of the paper's argument: models are
//! "derived data" and must live next to tables, versioned and access
//! controlled. Tables and *extension objects* (the generic mechanism the
//! `flock-core` crate uses to store models) both get version chains, and
//! both participate in the same grant model.

use crate::batch::RecordBatch;
use crate::error::{Result, SqlError};
use crate::schema::Schema;
use crate::table::{Table, TableScan};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Kinds of securable catalog objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    Table,
    View,
    /// Extension objects are namespaced by their extension kind string
    /// (e.g. "model"); the grant model treats them all as `Extension`.
    Extension,
}

/// A reference to a securable object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    pub kind: ObjectKind,
    pub name: String,
}

impl ObjectRef {
    pub fn table(name: impl Into<String>) -> Self {
        ObjectRef {
            kind: ObjectKind::Table,
            name: name.into().to_ascii_lowercase(),
        }
    }
    pub fn view(name: impl Into<String>) -> Self {
        ObjectRef {
            kind: ObjectKind::View,
            name: name.into().to_ascii_lowercase(),
        }
    }
    pub fn extension(name: impl Into<String>) -> Self {
        ObjectRef {
            kind: ObjectKind::Extension,
            name: name.into().to_ascii_lowercase(),
        }
    }
}

/// Privileges in the grant model. `Execute` covers scoring a model with
/// PREDICT — the paper: "Access to a deployed model must be controlled,
/// similar to how access to data or a view is controlled in a DBMS."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    Select,
    Insert,
    Update,
    Delete,
    Execute,
    Create,
    Drop,
    Grant,
}

impl Privilege {
    pub fn parse(s: &str) -> Option<Privilege> {
        match s.to_ascii_uppercase().as_str() {
            "SELECT" => Some(Privilege::Select),
            "INSERT" => Some(Privilege::Insert),
            "UPDATE" => Some(Privilege::Update),
            "DELETE" => Some(Privilege::Delete),
            "EXECUTE" => Some(Privilege::Execute),
            "CREATE" => Some(Privilege::Create),
            "DROP" => Some(Privilege::Drop),
            "GRANT" => Some(Privilege::Grant),
            _ => None,
        }
    }

    pub const ALL: [Privilege; 8] = [
        Privilege::Select,
        Privilege::Insert,
        Privilege::Update,
        Privilege::Delete,
        Privilege::Execute,
        Privilege::Create,
        Privilege::Drop,
        Privilege::Grant,
    ];
}

/// A SQL view: a named stored query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    pub name: String,
    pub sql: String,
}

/// One version of an extension object (e.g. a serialized model).
#[derive(Debug, Clone)]
pub struct ExtensionVersion {
    pub version: u64,
    pub txn_id: u64,
    /// Opaque payload (e.g. FONNX bytes for models).
    pub payload: Vec<u8>,
    /// Structured metadata the owning extension interprets (lineage,
    /// schemas, metrics, ...).
    pub metadata: flock_json::Value,
}

/// A versioned, typed extension object. The SQL engine stores and secures
/// these without interpreting the payload — that is the owning extension's
/// job (for Flock: `flock-core` stores models here).
#[derive(Debug, Clone)]
pub struct ExtensionObject {
    /// Extension kind, e.g. "model".
    pub kind: String,
    pub name: String,
    pub owner: String,
    pub versions: Vec<ExtensionVersion>,
}

impl ExtensionObject {
    pub fn current(&self) -> &ExtensionVersion {
        self.versions.last().expect("extension objects have >=1 version")
    }

    pub fn at_version(&self, version: u64) -> Result<&ExtensionVersion> {
        self.versions
            .iter()
            .find(|v| v.version == version)
            .ok_or_else(|| {
                SqlError::Catalog(format!(
                    "object '{}' has no version {version}",
                    self.name
                ))
            })
    }
}

/// A canonical, order-stable dump of [`AccessControl`] used by the WAL and
/// checkpoint codecs. Users, grants, and privilege lists are sorted, so
/// two equal access states always produce byte-identical encodings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessDump {
    pub users: Vec<String>,
    pub superusers: Vec<String>,
    pub grants: Vec<(String, ObjectRef, Vec<Privilege>)>,
}

fn privilege_rank(p: Privilege) -> usize {
    Privilege::ALL
        .iter()
        .position(|x| *x == p)
        .expect("Privilege::ALL covers every variant")
}

fn object_rank(o: &ObjectRef) -> (u8, &str) {
    let kind = match o.kind {
        ObjectKind::Table => 0,
        ObjectKind::View => 1,
        ObjectKind::Extension => 2,
    };
    (kind, &o.name)
}

/// The access-control state: users and grants.
#[derive(Debug, Clone, Default)]
pub struct AccessControl {
    users: HashSet<String>,
    grants: HashMap<String, HashMap<ObjectRef, HashSet<Privilege>>>,
    /// Users with unrestricted access (the bootstrap superuser).
    superusers: HashSet<String>,
}

impl AccessControl {
    pub fn new() -> Self {
        let mut ac = AccessControl::default();
        ac.users.insert("admin".to_string());
        ac.superusers.insert("admin".to_string());
        ac
    }

    pub fn create_user(&mut self, name: &str) {
        self.users.insert(name.to_ascii_lowercase());
    }

    pub fn user_exists(&self, name: &str) -> bool {
        self.users.contains(&name.to_ascii_lowercase())
    }

    pub fn grant(&mut self, user: &str, object: ObjectRef, privs: &[Privilege]) {
        let user = user.to_ascii_lowercase();
        self.users.insert(user.clone());
        let entry = self
            .grants
            .entry(user)
            .or_default()
            .entry(object)
            .or_default();
        entry.extend(privs.iter().copied());
    }

    pub fn revoke(&mut self, user: &str, object: &ObjectRef, privs: &[Privilege]) {
        if let Some(objs) = self.grants.get_mut(&user.to_ascii_lowercase()) {
            if let Some(set) = objs.get_mut(object) {
                for p in privs {
                    set.remove(p);
                }
            }
        }
    }

    pub fn check(&self, user: &str, object: &ObjectRef, priv_: Privilege) -> Result<()> {
        let user_lc = user.to_ascii_lowercase();
        if self.superusers.contains(&user_lc) {
            return Ok(());
        }
        let ok = self
            .grants
            .get(&user_lc)
            .and_then(|objs| objs.get(object))
            .is_some_and(|set| set.contains(&priv_));
        if ok {
            Ok(())
        } else {
            Err(SqlError::AccessDenied(format!(
                "user '{user}' lacks {priv_:?} on {} '{}'",
                match object.kind {
                    ObjectKind::Table => "table",
                    ObjectKind::View => "view",
                    ObjectKind::Extension => "object",
                },
                object.name
            )))
        }
    }

    /// Export the full state in canonical (sorted) order for durability.
    pub fn dump(&self) -> AccessDump {
        let mut users: Vec<String> = self.users.iter().cloned().collect();
        users.sort();
        let mut superusers: Vec<String> = self.superusers.iter().cloned().collect();
        superusers.sort();
        let mut grants = Vec::new();
        for (user, objs) in &self.grants {
            for (obj, privs) in objs {
                let mut privs: Vec<Privilege> = privs.iter().copied().collect();
                privs.sort_by_key(|p| privilege_rank(*p));
                grants.push((user.clone(), obj.clone(), privs));
            }
        }
        grants.sort_by(|a, b| {
            (a.0.as_str(), object_rank(&a.1)).cmp(&(b.0.as_str(), object_rank(&b.1)))
        });
        AccessDump {
            users,
            superusers,
            grants,
        }
    }

    /// Rebuild access state from a dump (recovery path). Does not seed the
    /// bootstrap superuser — the dump is the complete state.
    pub fn from_dump(dump: &AccessDump) -> AccessControl {
        let mut ac = AccessControl::default();
        ac.users.extend(dump.users.iter().cloned());
        ac.superusers.extend(dump.superusers.iter().cloned());
        for (user, obj, privs) in &dump.grants {
            ac.grants
                .entry(user.clone())
                .or_default()
                .entry(obj.clone())
                .or_default()
                .extend(privs.iter().copied());
        }
        ac
    }
}

/// The full catalog. Cloning a catalog is cheap-ish: table versions are
/// `Arc`-shared, only the maps are copied — this is what transaction
/// snapshots rely on. Extension objects carry their payloads (whole
/// serialized models) inline, so that map is shared copy-on-write: every
/// statement clones the catalog, few write an extension object.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Shared by `Arc`, so cloning a catalog (every transaction and
    /// snapshot read starts with one) copies no table's version list; a
    /// write copies the one table it changes ([`Catalog::table_mut`]).
    tables: BTreeMap<String, Arc<Table>>,
    views: BTreeMap<String, ViewDef>,
    extensions: Arc<BTreeMap<(String, String), ExtensionObject>>,
    pub access: AccessControl,
    /// Handle to the database directory's part files, when the engine is
    /// durable. Rides along with catalog clones (it is just an `Arc`) so
    /// planners and executors holding a catalog snapshot can open the
    /// part-backed versions it references. `None` for in-memory engines —
    /// whose tables never have parts.
    part_store: Option<Arc<crate::parts::PartStore>>,
    /// Tables whose rows are computed when read, registered once at
    /// database open and shared by every clone.
    virtual_tables: Arc<Vec<Arc<dyn VirtualTable>>>,
}

/// A table whose rows are computed when a statement reads it (the
/// engine's `flock_metrics`). Resolved by name wherever no real table of
/// that name exists, so a statement that does not name it pays nothing.
pub trait VirtualTable: Send + Sync + std::fmt::Debug {
    fn name(&self) -> &str;
    fn schema(&self) -> Arc<Schema>;
    fn rows(&self) -> Result<RecordBatch>;
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog {
            tables: BTreeMap::new(),
            views: BTreeMap::new(),
            extensions: Arc::default(),
            access: AccessControl::new(),
            part_store: None,
            virtual_tables: Arc::default(),
        }
    }

    /// Register a virtual table (done once at database open).
    pub fn register_virtual_table(&mut self, table: Arc<dyn VirtualTable>) {
        Arc::make_mut(&mut self.virtual_tables).push(table);
    }

    /// The virtual table called `name`, unless a real table shadows it.
    pub fn virtual_table(&self, name: &str) -> Option<&Arc<dyn VirtualTable>> {
        if self.has_table(name) {
            return None;
        }
        self.virtual_tables
            .iter()
            .find(|v| v.name().eq_ignore_ascii_case(name))
    }

    /// The rows of table `name` at `version` (the latest when `None`) as a
    /// chunk source — or, when no real table has that name, the rows of
    /// the virtual table called `name`.
    pub fn scan_table(&self, name: &str, version: Option<u64>) -> Result<TableScan> {
        let table = match (self.table(name), self.virtual_table(name)) {
            (Ok(t), _) => t,
            (Err(_), Some(v)) if version.is_none() => {
                return Ok(TableScan::new(&[], &v.rows()?, None));
            }
            (Err(e), _) => return Err(e),
        };
        let tv = match version {
            Some(v) => table.at_version(v)?,
            None => table.current(),
        };
        Ok(tv.scan(self.part_store()))
    }

    /// Attach the part store (done once at database open, after recovery).
    pub fn set_part_store(&mut self, store: Arc<crate::parts::PartStore>) {
        self.part_store = Some(store);
    }

    pub fn part_store(&self) -> Option<&Arc<crate::parts::PartStore>> {
        self.part_store.as_ref()
    }

    // ---- tables ----

    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let key = table.name().to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(SqlError::Catalog(format!(
                "table '{}' already exists",
                table.name()
            )));
        }
        if self.views.contains_key(&key) {
            return Err(SqlError::Catalog(format!(
                "a view named '{}' already exists",
                table.name()
            )));
        }
        self.tables.insert(key, Arc::new(table));
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| SqlError::Catalog(format!("table '{name}' does not exist")))
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|t| &**t)
            .ok_or_else(|| SqlError::Catalog(format!("table '{name}' does not exist")))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| SqlError::Catalog(format!("table '{name}' does not exist")))
    }

    /// Install `src`'s table `name` in place of this catalog's, sharing
    /// it (or drop this one's when `src` has none): how a commit publishes
    /// a table it wrote.
    pub(crate) fn share_table(&mut self, src: &Catalog, name: &str) {
        let key = name.to_ascii_lowercase();
        match src.tables.get(&key) {
            Some(t) => self.tables.insert(key, t.clone()),
            None => self.tables.remove(&key),
        };
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    // ---- views ----

    pub fn create_view(&mut self, view: ViewDef) -> Result<()> {
        let key = view.name.to_ascii_lowercase();
        if self.views.contains_key(&key) || self.tables.contains_key(&key) {
            return Err(SqlError::Catalog(format!(
                "object '{}' already exists",
                view.name
            )));
        }
        self.views.insert(key, view);
        Ok(())
    }

    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(&name.to_ascii_lowercase())
    }

    /// All views in catalog-key (sorted) order.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
    }

    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        self.views
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| SqlError::Catalog(format!("view '{name}' does not exist")))
    }

    // ---- extension objects (models, ...) ----

    /// Create a new extension object with its initial version.
    pub fn create_extension(
        &mut self,
        kind: &str,
        name: &str,
        owner: &str,
        payload: Vec<u8>,
        metadata: flock_json::Value,
        txn_id: u64,
    ) -> Result<()> {
        let key = (kind.to_ascii_lowercase(), name.to_ascii_lowercase());
        if self.extensions.contains_key(&key) {
            return Err(SqlError::Catalog(format!(
                "{kind} '{name}' already exists"
            )));
        }
        Arc::make_mut(&mut self.extensions).insert(
            key,
            ExtensionObject {
                kind: kind.to_ascii_lowercase(),
                name: name.to_ascii_lowercase(),
                owner: owner.to_string(),
                versions: vec![ExtensionVersion {
                    version: 1,
                    txn_id,
                    payload,
                    metadata,
                }],
            },
        );
        Ok(())
    }

    /// Append a new version to an existing extension object.
    pub fn update_extension(
        &mut self,
        kind: &str,
        name: &str,
        payload: Vec<u8>,
        metadata: flock_json::Value,
        txn_id: u64,
    ) -> Result<u64> {
        let obj = self.extension_mut(kind, name)?;
        let version = obj.current().version + 1;
        obj.versions.push(ExtensionVersion {
            version,
            txn_id,
            payload,
            metadata,
        });
        Ok(version)
    }

    pub fn drop_extension(&mut self, kind: &str, name: &str) -> Result<()> {
        let key = (kind.to_ascii_lowercase(), name.to_ascii_lowercase());
        Arc::make_mut(&mut self.extensions)
            .remove(&key)
            .map(|_| ())
            .ok_or_else(|| SqlError::Catalog(format!("{kind} '{name}' does not exist")))
    }

    pub fn extension(&self, kind: &str, name: &str) -> Result<&ExtensionObject> {
        let key = (kind.to_ascii_lowercase(), name.to_ascii_lowercase());
        self.extensions
            .get(&key)
            .ok_or_else(|| SqlError::Catalog(format!("{kind} '{name}' does not exist")))
    }

    fn extension_mut(&mut self, kind: &str, name: &str) -> Result<&mut ExtensionObject> {
        let key = (kind.to_ascii_lowercase(), name.to_ascii_lowercase());
        Arc::make_mut(&mut self.extensions)
            .get_mut(&key)
            .ok_or_else(|| SqlError::Catalog(format!("{kind} '{name}' does not exist")))
    }

    pub fn has_extension(&self, kind: &str, name: &str) -> bool {
        let key = (kind.to_ascii_lowercase(), name.to_ascii_lowercase());
        self.extensions.contains_key(&key)
    }

    /// All extension objects in catalog-key (sorted) order.
    pub fn extensions_all(&self) -> impl Iterator<Item = &ExtensionObject> {
        self.extensions.values()
    }

    /// Install a fully-formed extension object (recovery path: checkpoint
    /// restore re-creates objects with their complete version chains).
    pub fn install_extension(&mut self, obj: ExtensionObject) -> Result<()> {
        let key = (obj.kind.to_ascii_lowercase(), obj.name.to_ascii_lowercase());
        if obj.versions.is_empty() {
            return Err(SqlError::Catalog(format!(
                "{} '{}' has no versions",
                obj.kind, obj.name
            )));
        }
        if self.extensions.contains_key(&key) {
            return Err(SqlError::Catalog(format!(
                "{} '{}' already exists",
                obj.kind, obj.name
            )));
        }
        Arc::make_mut(&mut self.extensions).insert(key, obj);
        Ok(())
    }

    pub fn extensions_of_kind(&self, kind: &str) -> Vec<&ExtensionObject> {
        let kind = kind.to_ascii_lowercase();
        self.extensions
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, v)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::DataType;

    fn table(name: &str) -> Table {
        Table::new(name, Schema::from_pairs(&[("id", DataType::Int)]), 1).unwrap()
    }

    #[test]
    fn table_lifecycle_and_case_insensitivity() {
        let mut c = Catalog::new();
        c.create_table(table("Orders")).unwrap();
        assert!(c.has_table("ORDERS"));
        assert!(c.table("orders").is_ok());
        assert!(c.create_table(table("orders")).is_err());
        c.drop_table("Orders").unwrap();
        assert!(c.table("orders").is_err());
    }

    #[test]
    fn view_name_collides_with_table() {
        let mut c = Catalog::new();
        c.create_table(table("t")).unwrap();
        let err = c.create_view(ViewDef {
            name: "T".into(),
            sql: "SELECT 1".into(),
        });
        assert!(err.is_err());
    }

    #[test]
    fn extension_objects_version() {
        let mut c = Catalog::new();
        c.create_extension("model", "churn", "admin", vec![1, 2], flock_json::json!({}), 5)
            .unwrap();
        let v = c
            .update_extension("model", "churn", vec![3], flock_json::json!({"n": 2}), 6)
            .unwrap();
        assert_eq!(v, 2);
        let obj = c.extension("model", "CHURN").unwrap();
        assert_eq!(obj.current().payload, vec![3]);
        assert_eq!(obj.at_version(1).unwrap().payload, vec![1, 2]);
        assert!(obj.at_version(9).is_err());
        assert_eq!(c.extensions_of_kind("model").len(), 1);
        c.drop_extension("model", "churn").unwrap();
        assert!(c.extension("model", "churn").is_err());
    }

    #[test]
    fn access_control_grant_revoke() {
        let mut ac = AccessControl::new();
        let t = ObjectRef::table("patients");
        // superuser passes, unknown user fails
        ac.check("admin", &t, Privilege::Select).unwrap();
        assert!(ac.check("alice", &t, Privilege::Select).is_err());
        ac.grant("alice", t.clone(), &[Privilege::Select]);
        ac.check("ALICE", &t, Privilege::Select).unwrap();
        assert!(ac.check("alice", &t, Privilege::Insert).is_err());
        ac.revoke("alice", &t, &[Privilege::Select]);
        assert!(ac.check("alice", &t, Privilege::Select).is_err());
    }

    #[test]
    fn model_execute_privilege_is_separate() {
        let mut ac = AccessControl::new();
        let m = ObjectRef::extension("risk_model");
        ac.grant("bob", m.clone(), &[Privilege::Execute]);
        ac.check("bob", &m, Privilege::Execute).unwrap();
        assert!(ac.check("bob", &m, Privilege::Drop).is_err());
    }
}
