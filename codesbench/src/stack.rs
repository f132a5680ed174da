//! The serving stack the online workload drives, and the HTTP load client.
//!
//! `HttpClient::post_json` → `Gateway` → `Router` (one shard) → `Pool` →
//! `SystemBackend` → `CatalogService` over a connection pool on a
//! `FlakyBackend` that adds a fixed per-operation wire delay (and no
//! faults) to a `MemoryBackend`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use codes::{CodesSystem, SystemCache};
use codes_gateway::{Gateway, GatewayConfig, GatewayStats, HttpClient};
use codes_router::{Router, RouterConfig, ShardSpec};
use codes_serve::{Backend, ServeConfig, SystemBackend};
use codes_storage::{
    CatalogService, ConnectionPool, FaultSpec, FlakyBackend, IntrospectOptions, MemoryBackend,
    PoolConfig,
};
use serde::Json;
use sqlengine::{Database, Row};

use crate::gen::{write_row, Rng};

pub struct Stack {
    pub storage: Arc<FlakyBackend<MemoryBackend>>,
    pub service: Arc<CatalogService>,
    pub backend: Arc<SystemBackend>,
    pub router: Arc<Router>,
    pub gateway: Gateway,
    pub serve: ServeConfig,
}

impl Stack {
    /// Start the stack over `dbs` and attach every database.
    pub fn start(
        system: Arc<CodesSystem>,
        dbs: Vec<Database>,
        wire_delay: Duration,
        cache: Option<Arc<SystemCache>>,
        clients: usize,
    ) -> Result<Stack, String> {
        let expected = dbs.len();
        let storage = Arc::new(FlakyBackend::new(
            MemoryBackend::new(dbs),
            FaultSpec::latency_only(wire_delay),
        ));
        let pool = ConnectionPool::new(
            Arc::clone(&storage) as Arc<dyn codes_storage::Backend>,
            PoolConfig::default(),
        );
        let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
        let backend = Arc::new(SystemBackend::with_catalogs(system, Arc::clone(&service)));
        if service.attached().len() != expected {
            return Err(format!(
                "attached {} of {expected} databases",
                service.attached().len()
            ));
        }
        let serve = ServeConfig {
            workers: clients,
            queue_capacity: 256,
            cache,
            ..ServeConfig::default()
        };
        let registry = Arc::new(codes_obs::Registry::new());
        let router = Arc::new(Router::start_with_registry(
            vec![ShardSpec::new(
                Arc::clone(&backend) as Arc<dyn Backend>,
                serve.clone(),
            )],
            RouterConfig::default(),
            registry,
        ));
        let gateway = Gateway::start(
            Arc::clone(&router),
            GatewayConfig {
                max_connections: clients + 8,
                ..GatewayConfig::default()
            },
        )
        .map_err(|e| format!("gateway start: {e}"))?;
        Ok(Stack {
            storage,
            service,
            backend,
            router,
            gateway,
            serve,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    /// One row write to the live store through `MemoryBackend::mutate`.
    /// Returns the table written and the row as stored.
    pub fn write(&self, db_id: &str, rng: &mut Rng) -> Result<(String, Row), String> {
        self.storage
            .inner()
            .mutate(db_id, |db| write_row(db, rng))
            .map_err(|e| format!("write to {db_id}: {e}"))?
    }

    /// Drain the gateway and the router. Returns the gateway's counters.
    pub fn shutdown(self) -> Result<GatewayStats, String> {
        let stats = self.gateway.shutdown();
        drop(self.backend);
        let router = Arc::into_inner(self.router).ok_or("router still shared at shutdown")?;
        router.shutdown();
        Ok(stats)
    }
}

/// What the gateway answered for one inference.
#[derive(Debug, Clone)]
pub struct Reply {
    pub sql: String,
    pub cached: bool,
}

/// A closed-loop keep-alive client that honours `connection: close`: the
/// gateway closes a connection after a fixed number of responses, and the
/// client then opens a fresh one for its next request.
pub struct Client {
    addr: SocketAddr,
    conn: Option<HttpClient>,
    pub reconnects: u64,
    /// Inference requests written to the gateway.
    pub sent: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            reconnects: 0,
            sent: 0,
        }
    }

    pub fn infer(&mut self, db_id: &str, question: &str) -> Result<Reply, String> {
        let conn = match self.conn.as_mut() {
            Some(conn) => conn,
            None => self
                .conn
                .insert(HttpClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?),
        };
        let body = Json::Obj(vec![
            ("db_id".to_string(), Json::Str(db_id.to_string())),
            ("question".to_string(), Json::Str(question.to_string())),
        ]);
        self.sent += 1;
        let response = conn
            .post_json("/v1/infer", &[], &body)
            .map_err(|e| format!("http: {e}"))?;
        if response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.conn = None;
            self.reconnects += 1;
        }
        if response.status != 200 {
            return Err(format!(
                "status {}: {}",
                response.status,
                response.body_str()
            ));
        }
        let data = response.data().ok_or("response without a data payload")?;
        let sql = data
            .get("sql")
            .and_then(Json::as_str)
            .ok_or("reply without sql")?;
        let cached = data
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or("reply without cached")?;
        Ok(Reply {
            sql: sql.to_string(),
            cached,
        })
    }
}
