module gupt/bench

go 1.22

require gupt v0.0.0

replace gupt => ../
