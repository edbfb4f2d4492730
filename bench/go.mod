module culinary/bench

go 1.22

require culinary v0.0.0

replace culinary => ../
