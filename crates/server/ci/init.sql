-- Boot script for the CI server-smoke job (run by flock-serve --init as
-- admin before the listener starts accepting connections).
CREATE TABLE sensors (id INT, reading DOUBLE, label TEXT);
INSERT INTO sensors VALUES (1, 0.5, 'ok'), (2, 1.5, 'hot'), (3, -0.5, 'cold'), (4, 0.7, 'ok');
CREATE USER analyst;
GRANT SELECT ON TABLE sensors TO analyst;
-- A table analyst has no grant on: the smoke job checks that a subquery
-- cannot read it either (subqueries go through the same access control).
CREATE TABLE payroll (id INT, salary DOUBLE);
INSERT INTO payroll VALUES (1, 95000.0), (2, 120000.0);
-- Streaming: an append-only click stream plus a tumbling-window
-- continuous query the background scheduler evaluates while serving.
CREATE STREAM clicks (et INT, page INT) WATERMARK (et, 0);
CREATE CONTINUOUS QUERY click_counts ON clicks WINDOW TUMBLING (100)
  EMIT INTO click_windows AS SELECT page, COUNT(*) AS n FROM clicks GROUP BY page;
GRANT SELECT ON TABLE click_windows TO analyst
