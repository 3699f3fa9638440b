//! Bring your own protocol: define a packet format with the Pit DSL, wrap a
//! tiny hand-written parser as a fuzzing [`Target`], and fuzz it with
//! Peach\*.
//!
//! This is the path a downstream user takes to fuzz a protocol that is not
//! one of the six built-in targets.
//!
//! ```text
//! cargo run -p peachstar --release --example custom_protocol
//! ```

use peachstar::campaign::{Campaign, CampaignConfig};
use peachstar::strategy::StrategyKind;
use peachstar_coverage::{cov_edge, TraceContext};
use peachstar_datamodel::pit::parse_pit;
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::{Fault, FaultKind, Outcome, Target};

/// The format specification, written in the Pit DSL instead of Rust.
const PIT: &str = "\
# A toy sensor-gateway protocol: one header, two commands.
model read_sensor
  number magic width=2 endian=be value=0xCAFE
  number opcode width=1 value=1
  number sensor width=1 rule=sensor-id
  number count width=1 default=1

model write_limit
  number magic width=2 endian=be value=0xCAFE
  number opcode width=1 value=2
  number sensor width=1 rule=sensor-id
  number limit width=2 endian=be default=100
  number checksum width=1 sum8=limit
";

/// A small stateful gateway with eight sensors and a planted off-by-one.
struct SensorGateway {
    limits: Vec<u16>,
    models: DataModelSet,
}

impl SensorGateway {
    fn new() -> Self {
        Self {
            limits: vec![100; 8],
            models: parse_pit("sensor-gateway", PIT).expect("pit parses"),
        }
    }
}

impl Target for SensorGateway {
    fn name(&self) -> &'static str {
        "sensor-gateway"
    }

    fn data_models(&self) -> DataModelSet {
        self.models.clone()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        if packet.len() < 4 || packet[0] != 0xCA || packet[1] != 0xFE {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let sensor = usize::from(packet[3]);
        match packet[2] {
            1 => {
                cov_edge!(ctx);
                if sensor >= self.limits.len() {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                cov_edge!(ctx, sensor);
                Outcome::Response
            }
            2 => {
                cov_edge!(ctx);
                if packet.len() < 7 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                // Planted bug: the bounds check is off by one.
                if sensor > self.limits.len() {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                if sensor == self.limits.len() {
                    cov_edge!(ctx);
                    return Outcome::Fault(Fault::new(
                        FaultKind::HeapBufferOverflow,
                        "gateway.c:write_limit",
                    ));
                }
                let limit = u16::from_be_bytes([packet[4], packet[5]]);
                cov_edge!(ctx, sensor);
                self.limits[sensor] = limit;
                Outcome::Response
            }
            _ => {
                cov_edge!(ctx);
                Outcome::ProtocolError
            }
        }
    }

    fn reset(&mut self) {
        self.limits = vec![100; 8];
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(SensorGateway::new())
    }
}

fn main() {
    let config = CampaignConfig::new(StrategyKind::PeachStar)
        .executions(15_000)
        .rng_seed(99);
    let report = Campaign::new(Box::new(SensorGateway::new()), config).run();
    println!("{report}");
    for bug in &report.bugs {
        println!(
            "found the planted bug: {} at execution {}",
            bug.fault, bug.first_execution
        );
    }
}
