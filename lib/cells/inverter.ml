let default_window ~vdd =
  if vdd >= 0.8 then 400e-12 else if vdd >= 0.65 then 1200e-12 else 4000e-12
