//! The model registry follows commits in commit order. Each test parks
//! the first of two model commits inside its commit hooks (after the
//! commit is installed, before the registry's own hook runs) and starts
//! the second commit on another thread. Either the second commit lands
//! and its hooks finish first, or the parked commit holds it back. In
//! both cases the registry must end where the catalog is: an earlier
//! commit's late hook may not roll a model back or remove one a later
//! commit created. Both commits go through plain engine sessions, the
//! path of SQL model DDL and of the scheduler thread's RETRAIN, so the
//! commit hook is the only thing that moves the registry.

use flock_core::{FlockDb, XOptConfig, MODEL_KIND};
use flock_ml::{fonnx, ColumnPipeline, LinearModel, Model, Pipeline};
use flock_sql::{Catalog, Database, Session, Value};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// `y = w * x`: the score of `x = 1` names the deployed weight.
fn linear(w: f64) -> Vec<u8> {
    fonnx::to_bytes(&Pipeline::new(
        vec![ColumnPipeline::numeric("x")],
        Model::Linear(LinearModel::new(vec![w], 0.0)),
        "y",
    ))
    .unwrap()
}

fn deploy(s: &mut Session, name: &str, w: f64) {
    let meta = flock_json::Value::Null;
    s.create_extension_object(MODEL_KIND, name, linear(w), meta)
        .unwrap();
}

fn redeploy(s: &mut Session, name: &str, w: f64) -> u64 {
    let meta = flock_json::Value::Null;
    s.update_extension_object(MODEL_KIND, name, linear(w), meta)
        .unwrap()
}

/// A Flock database whose first commit matching `park` waits inside its
/// commit hooks until the returned sender fires. The parking hook is
/// registered on the engine before Flock's registry hook, so it runs
/// first. The receiver reports that a commit is parked.
fn parking_db(
    park: impl Fn(&Catalog) -> bool + Send + Sync + 'static,
) -> (FlockDb, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let db = Database::new();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let armed = Mutex::new(Some((parked_tx, release_rx)));
    db.add_commit_hook(Arc::new(move |catalog, _| {
        if !park(catalog) {
            return;
        }
        let Some((parked, release)) = armed.lock().unwrap().take() else {
            return;
        };
        parked.send(()).unwrap();
        let _ = release.recv();
    }));
    (
        FlockDb::with_database(db, XOptConfig::default()),
        parked_rx,
        release_tx,
    )
}

/// Run `first` to its parked commit, then `second` on another thread;
/// release `first` once `second` has finished or has been held back for
/// 300 ms, and wait for both.
fn second_commit_while_first_is_parked(
    flock: &FlockDb,
    parked: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
    first: impl FnOnce(&mut Session) + Send + 'static,
    second: impl FnOnce(&mut Session) + Send + 'static,
) {
    let on_thread = |f: Box<dyn FnOnce(&mut Session) + Send>| {
        let db = flock.database().clone();
        let (done_tx, done_rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            f(&mut db.session("admin"));
            let _ = done_tx.send(());
        });
        (handle, done_rx)
    };
    let (a, _) = on_thread(Box::new(first));
    parked
        .recv_timeout(Duration::from_secs(10))
        .expect("the first commit never reached its hooks");
    let (b, b_done) = on_thread(Box::new(second));
    let _ = b_done.recv_timeout(Duration::from_millis(300));
    release.send(()).unwrap();
    a.join().unwrap();
    b.join().unwrap();
}

fn score_at_one(db: &Database, model: &str) -> Value {
    db.session("admin")
        .query(&format!("SELECT PREDICT({model}, 1.0)"))
        .unwrap()
        .column(0)
        .get(0)
}

#[test]
fn a_late_hook_does_not_roll_the_registry_back() {
    let is_v2 = |c: &Catalog| {
        c.extension("model", "m")
            .is_ok_and(|m| m.current().version == 2)
    };
    let (flock, parked, release) = parking_db(is_v2);
    deploy(&mut flock.database().session("admin"), "m", 1.0);
    second_commit_while_first_is_parked(
        &flock,
        parked,
        release,
        |s| assert_eq!(redeploy(s, "m", 2.0), 2),
        |s| assert_eq!(redeploy(s, "m", 3.0), 3),
    );

    let catalog_version = flock
        .database()
        .with_catalog(|c| c.extension("model", "m").unwrap().current().version);
    assert_eq!(catalog_version, 3);
    assert_eq!(flock.registry().get("m").unwrap().version, catalog_version);
    // An engine session scores the current weights.
    assert_eq!(score_at_one(flock.database(), "m"), Value::Float(3.0));
}

#[test]
fn a_late_hook_does_not_remove_a_later_model() {
    let has_a = |c: &Catalog| c.extension("model", "a").is_ok();
    let (flock, parked, release) = parking_db(has_a);
    second_commit_while_first_is_parked(
        &flock,
        parked,
        release,
        |s| deploy(s, "a", 1.0),
        |s| deploy(s, "b", 5.0),
    );

    assert_eq!(flock.registry().names(), ["a", "b"]);
    assert_eq!(score_at_one(flock.database(), "b"), Value::Float(5.0));
}
