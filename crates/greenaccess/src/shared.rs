//! Thread-safe platform handle: many clients, one green-ACCESS.
//!
//! `GreenAccess::invoke` is `&mut self` because settlement mutates the
//! ledger. Real deployments have many concurrent clients; [`SharedPlatform`]
//! wraps the platform in a mutex so client threads can submit
//! concurrently, and the endpoint/monitor threads still overlap the
//! execution and attribution work between settlements.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use green_machines::AppId;
use green_units::Credits;

use crate::auth::Token;
use crate::error::PlatformError;
use crate::platform::{GreenAccess, Placement, PlatformConfig};
use crate::receipts::Receipt;

/// A cloneable, thread-safe handle to one platform instance.
#[derive(Clone)]
pub struct SharedPlatform {
    inner: Arc<Mutex<GreenAccess>>,
}

impl SharedPlatform {
    /// Boots a platform and wraps it.
    pub fn new(config: PlatformConfig) -> SharedPlatform {
        SharedPlatform {
            inner: Arc::new(Mutex::new(GreenAccess::new(config))),
        }
    }

    /// Locks the platform. A client that panicked while holding the lock
    /// leaves it poisoned; the next client takes the guard anyway.
    fn platform(&self) -> MutexGuard<'_, GreenAccess> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a user (serialized on the platform lock).
    pub fn register_user(&self, name: &str, grant: Credits) -> Token {
        self.platform().register_user(name, grant)
    }

    /// Remaining balance of a user.
    pub fn balance(&self, user: &str) -> Option<Credits> {
        self.platform().balance(user)
    }

    /// Invokes a function. The platform lock is held across the
    /// invocation (the settlement path is strictly ordered), but endpoint
    /// execution and monitor attribution run on their own threads.
    pub fn invoke(
        &self,
        token: &Token,
        app: AppId,
        scale: f64,
        placement: Placement,
    ) -> Result<Receipt, PlatformError> {
        self.platform().invoke(token, app, scale, placement)
    }

    /// Total credits spent across all accounts.
    pub fn total_spent(&self) -> Credits {
        self.platform().ledger().total_spent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_clients_settle_exactly() {
        let platform = SharedPlatform::new(PlatformConfig::default());
        let users: Vec<(String, Token)> = (0..4)
            .map(|i| {
                let name = format!("client-{i}");
                let token = platform.register_user(&name, Credits::new(1.0e9));
                (name, token)
            })
            .collect();

        let mut handles = Vec::new();
        for (name, token) in users.clone() {
            let platform = platform.clone();
            handles.push(std::thread::spawn(move || {
                let mut spent = 0.0;
                for _ in 0..3 {
                    let receipt = platform
                        .invoke(&token, AppId::Bfs, 1.0, Placement::Cheapest)
                        .expect("invocation succeeds");
                    assert_eq!(receipt.user, name);
                    spent += receipt.charged.value();
                }
                (name, spent)
            }));
        }
        let mut total = 0.0;
        for handle in handles {
            let (name, spent) = handle.join().expect("client thread");
            // Each client's ledger position matches its receipts.
            let balance = platform.balance(&name).unwrap().value();
            assert!(
                (1.0e9 - balance - spent).abs() < 1e-6,
                "{name}: balance drift"
            );
            total += spent;
        }
        assert!((platform.total_spent().value() - total).abs() < 1e-6);
    }
}
