"""Output checks that rest on computations made here, not on stored output.

Every check returns ``(name, ok, detail)``. The checks read the CSV files
the workload wrote, and the public fields of the program's result objects;
the stationary covariance is checked against the discrete Lyapunov
equation the method defines, with the forcing rebuilt and the equation
solved here by doubling, independently of the program's solver.
"""

import numpy as np

#: |dB cell - 10 log10(linear cell)|; the dB cells carry 6 decimals
DB_TOL = 2e-6
#: relative gap between a global row and the sensor mean of its linear cells
MEAN_RTOL = 1e-10
#: relative residual ||R - A R A^T - F|| / ||R|| of the predicted covariance
LYAPUNOV_RESIDUAL_TOL = 1e-9
#: relative gap between the program's covariance and the doubling solution,
#: the tolerance the repository's own route-agreement test uses
LYAPUNOV_AGREEMENT_TOL = 1e-6
#: distance from 1 within which an eigenvalue of the mean transition is a unit one
UNIT_EIG_TOL = 1e-8

_SERIES = ("msd", "emse", "mse")


def _db(x):
    return 10.0 * np.log10(x)


def _read(path, header):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _db_columns_ok(table, first_lin):
    """Largest gap between each dB column and 10 log10 of the linear one."""
    worst = 0.0
    for k in range(3):
        lin = table[:, first_lin + 2 * k]
        db = table[:, first_lin + 2 * k + 1]
        worst = max(worst, float(np.max(np.abs(db - _db(lin)))))
    return worst


def series_csvs(global_path, t_total, j, per_sensor_path=None, per_sensor=None):
    """Checks on a learning-curve CSV pair (or a global CSV and the
    in-memory per-sensor curves when no per-sensor CSV is written)."""
    header = "msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db"
    out = []
    glob = _read(global_path, f"t,{header}")
    out.append(("global.csv rows = T", glob.shape[0] == t_total
                and np.array_equal(glob[:, 0], np.arange(1, t_total + 1)),
                f"{glob.shape[0]} rows, T = {t_total}"))
    worst = _db_columns_ok(glob, 1)
    out.append(("global.csv dB = 10 log10(lin)", worst <= DB_TOL, f"max gap {worst:.2e} dB"))
    if per_sensor_path is not None:
        sens = _read(per_sensor_path, f"t,sensor_id,{header}")
        rows_ok = (sens.shape[0] == t_total * j
                   and np.array_equal(sens[:, 0], np.repeat(np.arange(1, t_total + 1), j))
                   and np.array_equal(sens[:, 1], np.tile(np.arange(j), t_total)))
        out.append(("per_sensor.csv rows = T*J", rows_ok,
                    f"{sens.shape[0]} rows, T*J = {t_total * j}"))
        worst = _db_columns_ok(sens, 2)
        out.append(("per_sensor.csv dB = 10 log10(lin)", worst <= DB_TOL,
                    f"max gap {worst:.2e} dB"))
        lin = [sens[:, 2 + 2 * k].reshape(t_total, j) for k in range(3)] if rows_ok else None
    else:
        lin = [np.asarray(getattr(per_sensor, name)) for name in _SERIES]
    if lin is not None and glob.shape[0] == t_total:
        gap = max(float(np.max(np.abs(glob[:, 1 + 2 * k] - lin[k].mean(axis=1))
                               / lin[k].mean(axis=1))) for k in range(3))
        out.append(("global rows = sensor mean", gap <= MEAN_RTOL, f"max rel gap {gap:.2e}"))
    return out


def read_prediction_csv(path):
    """Per-sensor rows and the global row of a prediction CSV, linear cells."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "sensor_id,msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    names = [ln.split(",", 1)[0] for ln in lines[1:]]
    table = np.array([[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]])
    return names, table


def prediction_csv(name, path, j):
    names, table = read_prediction_csv(path)
    out = [(f"{name} prediction.csv rows = J + 1", names == [str(k) for k in range(j)] + ["global"],
            f"{len(names)} rows, J = {j}")]
    worst = _db_columns_ok(table, 0)
    out.append((f"{name} prediction.csv dB = 10 log10(lin)", worst <= DB_TOL, f"max gap {worst:.2e} dB"))
    gap = max(abs(table[-1, 2 * k] - table[:-1, 2 * k].mean()) / table[-1, 2 * k]
              for k in range(3))
    out.append((f"{name} prediction.csv global = sensor mean", gap <= MEAN_RTOL, f"rel gap {gap:.2e}"))
    return out


def comparison_csv(path, prediction_path, j, tol_db):
    """Delta and pass cells agree with the dB cells; predicted cells agree
    with the prediction CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    expected = [(m, s) for m in _SERIES for s in ["global"] + [str(k) for k in range(j)]]
    out = [("comparison.csv rows = 3 (J + 1)",
            lines[0] == "metric,scope,predicted_db,empirical_db,delta_db,pass"
            and [(r[0], r[1]) for r in rows] == expected, f"{len(rows)} rows")]
    worst = 0.0
    flags_ok = True
    for r in rows:
        pred, emp, delta = float(r[2]), float(r[3]), float(r[4])
        worst = max(worst, abs((emp - pred) - delta))
        flags_ok &= r[5] == str(abs(delta) <= tol_db).lower()
    out.append(("comparison.csv delta = empirical - predicted", worst <= DB_TOL,
                f"max gap {worst:.2e} dB"))
    out.append(("comparison.csv pass = |delta| <= tol", flags_ok, f"tol {tol_db} dB"))
    names, table = read_prediction_csv(prediction_path)
    pred_db = {(m, s): table[i, 2 * k + 1]
               for k, m in enumerate(_SERIES) for i, s in enumerate(names)}
    gap = max(abs(float(r[2]) - pred_db[(r[0], r[1])]) for r in rows)
    out.append(("comparison.csv predicted = prediction.csv", gap <= DB_TOL,
                f"max gap {gap:.2e} dB"))
    return out


def tail_deltas(predicted_lin, global_path, window):
    """Simulation minus theory in dB: network tail means of the global CSV over
    the last ``window`` steps, against the predicted global powers."""
    glob = _read(global_path, "t,msd_lin,msd_db,emse_lin,emse_db,mse_lin,mse_db")
    return {metric: float(_db(glob[-window:, 1 + 2 * k].mean()) - _db(predicted_lin[k]))
            for k, metric in enumerate(_SERIES)}


def format_deltas(deltas):
    return ", ".join(f"{m} {d:+.3f} dB" for m, d in deltas.items())


def stationary_forcing(system, noise):
    """Constant forcing F of R = A R A^T + F, rebuilt from public fields."""
    a = system.inner_transition
    b = system.data_input
    n = a.shape[0]
    lam = noise.lam
    r_zeps = np.linalg.solve(np.eye(n) - lam * a, lam * (b @ noise.r_eps_inf))
    cross = a @ r_zeps @ b.T
    return (a @ (noise.r_eta_bar_lam + noise.r_eta_lam) @ a.T
            + b @ noise.r_eps_inf @ b.T + cross + cross.T)


def lyapunov_doubling(a, f, max_squarings=64):
    """Solve R = A R A^T + F by doubling: R <- R + A_k R A_k^T, A_k <- A_k^2."""
    r = f.copy()
    ak = a.copy()
    for _ in range(max_squarings):
        step = ak @ r @ ak.T
        r = r + step
        if np.linalg.norm(step) <= 1e-16 * np.linalg.norm(r):
            break
        ak = ak @ ak
    return 0.5 * (r + r.T)


def lyapunov(name, system, noise, r_z):
    a = system.inner_transition
    f = stationary_forcing(system, noise)
    scale = float(np.linalg.norm(r_z))
    residual = float(np.linalg.norm(r_z - a @ r_z @ a.T - f)) / scale
    reference = lyapunov_doubling(a, f)
    agreement = float(np.linalg.norm(r_z - reference) / np.linalg.norm(reference))
    return [
        (f"{name} Lyapunov residual <= {LYAPUNOV_RESIDUAL_TOL:.0e}",
         residual <= LYAPUNOV_RESIDUAL_TOL, f"{residual:.2e}"),
        (f"{name} agrees with doubling within {LYAPUNOV_AGREEMENT_TOL:.0e}",
         agreement <= LYAPUNOV_AGREEMENT_TOL, f"{agreement:.2e}"),
    ]


def stability(name, system, mean_report, mse_report, predicted_rho):
    """p unit eigenvalues of the mean transition and rho < 1, counted here."""
    w = np.linalg.eigvals(system.mean_transition)
    units = int(np.sum(np.abs(w - 1.0) < UNIT_EIG_TOL))
    rho = float(np.max(np.abs(np.linalg.eigvals(system.inner_transition))))
    rho_gap = max(abs(mse_report.rho - rho), abs(predicted_rho - rho))
    return [
        (f"{name} p unit eigenvalues", units == system.p
         and mean_report.unit_eigen_count == system.p and mean_report.stable,
         f"{units} counted here, {mean_report.unit_eigen_count} reported, p = {system.p}"),
        (f"{name} rho < 1", rho < 1.0 and rho_gap <= 1e-10,
         f"rho {rho:.6f}, reported {mse_report.rho:.6f} / {predicted_rho:.6f}"),
    ]
