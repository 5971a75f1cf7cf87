-- Scripted session for the CI server-smoke job: flock-cli runs this
-- against a live flock-serve and exits non-zero if any statement fails.
SELECT id, reading, label FROM sensors WHERE reading > 0.0;
CREATE TABLE readings_copy (id INT, reading DOUBLE);
INSERT INTO readings_copy SELECT id, reading FROM sensors;
SELECT id FROM readings_copy WHERE reading >= 0.5;
SET statement_timeout = 5000;
SET predict_strategy = 'row';
SELECT metric, value FROM flock_metrics WHERE metric = 'server_connections_accepted';
SET statement_timeout = DEFAULT;
SHOW STREAMS;
INSERT INTO clicks VALUES (10, 1), (20, 1), (30, 2), (150, 1);
SELECT metric, value FROM flock_metrics WHERE metric = 'stream_cq_ticks';
